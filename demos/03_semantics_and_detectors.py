"""Measure what messages mean and test whether communication happens.

Semantic distance between two messages is the distance between the
listener behaviours they induce, so synonyms land at distance zero even
when their surface forms differ. The two detectors then check, from data
alone, that speakers encode targets (positive signalling) and that
listeners actually react to messages (positive listening).
"""

from cooplang import (
    CommunityConfig,
    DistanceConfig,
    ListenerPolicy,
    Message,
    build_community,
    collect,
    enumerate_messages,
    lewis_game,
    optimal_message,
    positive_listening_test,
    positive_signalling_test,
    semantic_distance,
)


def main():
    game = lewis_game()
    com = build_community(CommunityConfig(game=game, epsilon=0.1), 0)
    listener = com.listeners[0]
    cfg = DistanceConfig()

    print("optimal message per target:")
    for tau in com.game.table.trajs:
        m = optimal_message(listener, game, tau)
        print(f"  {tau.canonical_key:10s} -> {m.canonical()!r}")

    msgs = enumerate_messages(game)
    print()
    print("pairwise semantic distances:")
    for a in msgs:
        row = " ".join(
            f"{semantic_distance(listener, game, a, b, cfg):.3f}"
            for b in msgs)
        print(f"  {a.canonical()}: {row}")

    print()
    dataset = collect(com, 300, master_seed=3)
    episodes = [((), r.trajectory.actions, (r.message.canonical(),))
                for r in dataset.records]
    sig = positive_signalling_test(episodes, cfg)
    print(f"positive signalling: detected={sig.detected} "
          f"MI={sig.statistic:.3f} nats, p={sig.p_value:.4f}")

    lis = positive_listening_test(listener, game, msgs, cfg)
    print(f"positive listening:  detected={lis.detected} "
          f"statistic={lis.statistic:.3f}")

    blind = ListenerPolicy(codebook={}, epsilon=0.0)
    lis = positive_listening_test(blind, game, msgs, cfg)
    print(f"message-blind listener: detected={lis.detected} "
          f"statistic={lis.statistic}")


if __name__ == "__main__":
    main()
