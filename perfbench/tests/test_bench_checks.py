import pytest

from checks import Game, edit_distance, levenshtein, literal_map
from workloads import LEWIS_4, SUPERMARKET_2X2, SUPERMARKET_3X3


def test_levenshtein_hand_cases():
    assert levenshtein("kitten", "sitting") == 3
    assert levenshtein((), ("pick",)) == 1
    assert levenshtein(("E", "S", "N"), ("S", "E", "pick")) == 3
    assert levenshtein(("E", "S"), ("E", "S")) == 0


def test_edit_distance_is_normalized_by_the_longer_sequence():
    assert edit_distance(("N", "E"), ("E",)) == 0.5
    assert edit_distance(("E", "S", "N"), ("E", "S", "pick")) == 1 / 3
    assert edit_distance((), ()) == 0.0


@pytest.mark.parametrize("doc, count", [
    (LEWIS_4, 4), (SUPERMARKET_2X2, 25), (SUPERMARKET_3X3, 125)])
def test_trajectory_counts(doc, count):
    assert len(Game(doc).trajectories()) == count


def test_lewis_map_by_hand():
    # pick0 is worth 1, the others 0; every pair of picks is at distance 1
    game = Game(LEWIS_4)
    cands = game.trajectories()
    # alpha=1: pick0 scores 1 - 1 = 0 and ties the observed pick2 (0 - 0);
    # the tie goes to the higher return
    assert literal_map(game, cands, 1.0, ("pick2",)) == "start::pick0"
    assert literal_map(game, cands, 0.5, ("pick2",)) == "start::pick0"
    assert literal_map(game, cands, 2.0, ("pick2",)) == "start::pick2"
    assert literal_map(game, cands, 2.0, ("pick0",)) == "start::pick0"


def test_two_by_two_map_by_hand():
    # horizon 2 cannot reach the milk: every return is -0.1, so the
    # observed trajectory (distance 0) is its own label
    game = Game(SUPERMARKET_2X2)
    assert literal_map(game, game.trajectories(), 1.0, ("E", "S")) \
        == "0,0|::E,S"
    # with horizon 3, E,S,pick collects the milk (V = 0.9) at distance 1/3
    # from E,S,N (V = -0.15): it wins at alpha=1 and loses at alpha=4
    game = Game({**SUPERMARKET_2X2, "horizon": 3})
    cands = game.trajectories()
    assert game.value(("E", "S", "pick")) == pytest.approx(0.9)
    assert literal_map(game, cands, 1.0, ("E", "S", "N")) \
        == "0,0|::E,S,pick"
    assert literal_map(game, cands, 4.0, ("E", "S", "N")) == "0,0|::E,S,N"


def test_illegal_actions_are_refused():
    game = Game(SUPERMARKET_2X2)
    with pytest.raises(ValueError):
        game.replay(("E", "up"))
    with pytest.raises(ValueError):
        game.replay(("E", "S", "pick"))  # past the horizon
    with pytest.raises(ValueError):
        Game(LEWIS_4).replay(("pick1", "pick2"))
