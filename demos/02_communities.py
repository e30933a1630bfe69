"""Build a synthetic community and inspect its conventions.

A community pairs Boltzmann speakers with codebook listeners. The seeded
builder permutes which message stands for which plan, so two communities
with different seeds speak different private languages about the same game.
"""

from cooplang import CommunityConfig, build_community, collect, lewis_game
from cooplang.community import speaker_message_dist


def main():
    game = lewis_game()
    cfg = CommunityConfig(game=game, temp_msg=0.5, epsilon=0.1)

    for seed in (0, 1):
        com = build_community(cfg, seed)
        print(f"community seed {seed}: codebook "
              f"{com.listeners[0].codebook}")

    com = build_community(cfg, 0)
    speaker = com.speakers[0]

    print()
    print("speaker message distribution per target:")
    for tau in com.game.table.trajs:
        msgs, probs = speaker_message_dist(speaker, game, tau)
        shown = ", ".join(f"{m.canonical() or '(null)'}:{p:.3f}"
                          for m, p in zip(msgs, probs))
        print(f"  {tau.canonical_key:24s} -> {shown}")

    print()
    print("one noisy episode:")
    episode = collect(com, 1, master_seed=7).records[0]
    print(f"  target   {episode.hidden_target.canonical_key}")
    print(f"  message  {episode.message.canonical()!r}")
    print(f"  realized {episode.trajectory.canonical_key}")


if __name__ == "__main__":
    main()
