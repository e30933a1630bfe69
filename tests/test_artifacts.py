"""The bytes of every CLI artifact, pinned.

Seven small configs run the seven pipeline commands in one process, and each
artifact a command writes is checked against the sha256 it had when it was
recorded. A change to how an episode consumes its rng stream, to the order
of a sum, or to a file format changes some digest, so a change meant to
keep the outputs must keep every one of them.

`semantics.json` names the scipy that solved its LPs, so its digest is
taken with that name written as "scipy": the digest pins its entries'
bits and its key, whatever scipy version runs the test.
"""

import hashlib
import json

import pytest

from cooplang import lewis_game, supermarket_game
from cooplang.cli import EXIT_OK, main
from cooplang.semantics import _solver_version

SM_2X2 = supermarket_game(
    width=2, height=2, items={"milk": (1, 1)}, shopping_list=["milk"],
    start=(0, 0), horizon=2, vocab=tuple("abcdefgh"),
    max_msg_len=2).to_json_dict()

SM_3X3 = supermarket_game(
    width=3, height=3, items={"milk": (0, 1), "bread": (2, 2)},
    shopping_list=["milk", "bread"], start=(0, 0), horizon=3,
    vocab=tuple("abcdefgh"), max_msg_len=2).to_json_dict()

CONFIGS = {
    "lewis4-eps0.1": {
        "game": lewis_game(n_candidates=4, vocab=("a", "b", "c", "d"),
                           max_msg_len=2).to_json_dict(),
        "community": {"epsilon": 0.1, "temp_msg": 1.0},
        "inference": {"alpha": 1.0},
        "run": {"n_episodes": 200, "seed": 3},
    },
    "sm2x2-eps0.1": {
        "game": supermarket_game(
            width=2, height=2, items={"milk": (1, 1)}, shopping_list=["milk"],
            start=(0, 0), horizon=2, vocab=tuple("abcdefgh"),
            max_msg_len=2).to_json_dict(),
        "community": {"epsilon": 0.1, "temp_msg": 1.0, "codebook_k": 8},
        "inference": {"alpha": 1.0},
        "run": {"n_episodes": 200, "seed": 3},
    },
    # point-mass behaviours: every S entry is one D entry, no LP
    "sm3x3-eps0": {
        "game": SM_3X3,
        "community": {"epsilon": 0.0, "temp_msg": 1.0, "codebook_k": 64},
        "inference": {"alpha": 1.0},
        "run": {"n_episodes": 100, "seed": 3},
    },
    # MAP against the listener's expected edit distance
    "sm2x2-eps0.1-expected": {
        "game": SM_2X2,
        "community": {"epsilon": 0.1, "temp_msg": 1.0, "codebook_k": 8},
        "inference": {"alpha": 1.0, "variant": "expected"},
        "run": {"n_episodes": 200, "seed": 3},
    },
    # the detector's lift is total variation; speakers keep Wasserstein-1
    "sm2x2-eps0.1-tv": {
        "game": SM_2X2,
        "community": {"epsilon": 0.1, "temp_msg": 1.0, "codebook_k": 8},
        "inference": {"alpha": 1.0},
        "distances": {"dist_lift": "total_variation"},
        "run": {"n_episodes": 200, "seed": 3},
    },
    # three speakers and two listeners: bounded draws from the buffered
    # uint32 half, and noise at every step of a horizon-3 episode
    "sm3x3-eps0.1-3s2l": {
        "game": SM_3X3,
        "community": {"epsilon": 0.1, "temp_msg": 1.0, "codebook_k": 3,
                      "n_speakers": 3, "n_listeners": 2},
        "inference": {"alpha": 1.0},
        "run": {"n_episodes": 100, "seed": 3},
    },
    # greedy targets and messages make no draw; only the rollouts do
    "sm2x2-eps0.5-greedy": {
        "game": SM_2X2,
        "community": {"epsilon": 0.5, "temp_msg": 1.0, "codebook_k": 8,
                      "greedy_msg": True, "greedy_target": True,
                      "n_listeners": 2},
        "inference": {"alpha": 1.0},
        "run": {"n_episodes": 100, "seed": 3},
    },
}

# the files each command writes, in pipeline order
PIPELINE = [
    ("gen-community", ["community.json"]),
    ("collect", ["dataset.jsonl", "dataset.index.json", "semantics.json"]),
    ("fit-broca", ["broca.json"]),
    ("fit-wernicke", ["wernicke.json"]),
    ("detect", ["report.json"]),
    ("eval-speaker", ["report.json", "report.csv"]),
    ("eval-listener", ["report.json", "report.csv"]),
]

DIGESTS = {
    "lewis4-eps0.1": {
        "gen-community/community.json":
            "910dc0bf5a8fa2e8a7d08e8934f9bff2e78ed2dd294cdf0daefe9c706761e50c",
        "collect/dataset.jsonl":
            "d76dc9afbf4c6a75c79a4879931584728751c470f36a1e2ad37db8fee34a470f",
        "collect/dataset.index.json":
            "a64b225ffc8ef4f6b905b36c81eb3cc03e394edb92053c6f4aaf07fa74f45ce4",
        "collect/semantics.json":
            "36c42a8e0a55e3a0d5495721c3bb4a34d63848601474b3e706dfa94f26b4862c",
        "fit-broca/broca.json":
            "46ab999afe1bfac5f1b95e7e75a238a78905a6014abddba16123cf3322274d77",
        "fit-wernicke/wernicke.json":
            "c103e194a00b5713f1be990f8649d18833b1bd98b8c3c0a18d202f2b3b37721e",
        "detect/report.json":
            "30c6579b2d6cda155837c2f52130dc98eb0b83d0062b9a873151ac9193d20e40",
        "eval-speaker/report.json":
            "e3baecdc6313a6e4b270a2d085d686f3425cef5d9b192dfdc61c8263f6020196",
        "eval-speaker/report.csv":
            "6509fc9cc606af328d0fd9b9dc2b77eb3c08cb7d82f538ee9b7403ed4ff97cb4",
        "eval-listener/report.json":
            "9408e114363dd9fa59384acfd3009f508862fd5a6f507e8a8a62df88e546e391",
        "eval-listener/report.csv":
            "79c6abcb5493f774c2a411b70a15877ae9dac7a67d9744e4bf87fc45001a62f6",
    },
    "sm2x2-eps0.1": {
        "gen-community/community.json":
            "3393aec27cd47bac708ad1212004d147b9bc3a59420528bcb1e29ad4b248d993",
        "collect/dataset.jsonl":
            "013ccb17abf09bca62e5f578a90dfdca64488568d5ee8c6d881e0dab4a4953d7",
        "collect/dataset.index.json":
            "2dbe46dea8a2c77189f06cd95e86551cb6ef445b98e7b1b6a2dc3edd40b77be4",
        "collect/semantics.json":
            "e4c4579fb0918497c27c3fd78ef68fe583741229a859861ed3315b8b022d1c04",
        "fit-broca/broca.json":
            "820c64015f64a1e3eb19c2d6718d5d3390f470d5280d555d21fbb4bed5cb8546",
        "fit-wernicke/wernicke.json":
            "bd9b177234720e387c25f6d697aecfced7f2c8594a8d4fafc8723b084210baac",
        "detect/report.json":
            "cc5d5b4bbff0a1a38e9cee2393aa1dec5cda55cb9b1c8286c1b5e7d77bbf7ddf",
        "eval-speaker/report.json":
            "78b121eccd7f251e97a3235e28f6f4bab391c866356f72d7dc605bc29968b530",
        "eval-speaker/report.csv":
            "167bcf996bd7b62396bc848cc56d7fd93d2333b30c6e219f588260f48f64aa09",
        "eval-listener/report.json":
            "c596d8239a2d93c012462d441336a21f7fceb88ef519d8d03f3bbea9de352bd7",
        "eval-listener/report.csv":
            "5c1e477f19b598a409e3a35b78efca6331076c2d9f01dcbcc9baa7b1fb30cfd1",
    },
    "sm3x3-eps0": {
        "gen-community/community.json":
            "88fc2dfde8cce974140bfae553166323b179c236789afe55c34bcde4a4fdb4f4",
        "collect/dataset.jsonl":
            "42c4ba37a12062a6f9f52a5b9dc4fc9315069178cd05cbff5113f501ad27d4c0",
        "collect/dataset.index.json":
            "9df9a0e1ebfe3e61324c7dd48f5c9ef13b08f92d3548dd07cabd0d7add5ab4cc",
        "collect/semantics.json":
            "55e945a2e09cf1711b4ad2f62287da82a27d267b4dfa8bb1f909f146f81236fd",
        "fit-broca/broca.json":
            "0a2e04df4c318fceaac22d683ea58f25470baa76d280fa4145d3643610cbc68f",
        "fit-wernicke/wernicke.json":
            "09269996c64368f686828e99796b057e7085f3d55bbfd858e043fe76cb00856e",
        "detect/report.json":
            "f96fb2e1260169ccef3d6d28535ef967890e9fbaf495177b5dd39a4d22a19f6c",
        "eval-speaker/report.json":
            "9d92cec73838ff4b55dc3b81350bbf2026d75eb2ce265b7b39974494b1acfbd5",
        "eval-speaker/report.csv":
            "315c9b08ea4b86e0ebcf0deb72260eaac7ad064059e816d7647ee5c00a8445fb",
        "eval-listener/report.json":
            "a6a8c7da83a9c6cd0626e37b27fdf5c70fb39feb7ac0934d056666727e1c08db",
        "eval-listener/report.csv":
            "1bed2072d58d65f250db3ed89fba3b7a104060a8ca15e0051a2dbcbf68ce92bc",
    },
    "sm2x2-eps0.1-expected": {
        "gen-community/community.json":
            "3393aec27cd47bac708ad1212004d147b9bc3a59420528bcb1e29ad4b248d993",
        "collect/dataset.jsonl":
            "013ccb17abf09bca62e5f578a90dfdca64488568d5ee8c6d881e0dab4a4953d7",
        "collect/dataset.index.json":
            "2dbe46dea8a2c77189f06cd95e86551cb6ef445b98e7b1b6a2dc3edd40b77be4",
        "collect/semantics.json":
            "e4c4579fb0918497c27c3fd78ef68fe583741229a859861ed3315b8b022d1c04",
        "fit-broca/broca.json":
            "820c64015f64a1e3eb19c2d6718d5d3390f470d5280d555d21fbb4bed5cb8546",
        "fit-wernicke/wernicke.json":
            "1e516cac75e2f09ca2ded17cde8c7276df9299fd9d9637c1c8ed0a2df2fff4fd",
        "detect/report.json":
            "cc5d5b4bbff0a1a38e9cee2393aa1dec5cda55cb9b1c8286c1b5e7d77bbf7ddf",
        "eval-speaker/report.json":
            "78b121eccd7f251e97a3235e28f6f4bab391c866356f72d7dc605bc29968b530",
        "eval-speaker/report.csv":
            "167bcf996bd7b62396bc848cc56d7fd93d2333b30c6e219f588260f48f64aa09",
        "eval-listener/report.json":
            "bb53adc7af6b30b2c7ddfa564d849d966f7d48479edba4ff7e967c665ed15d1f",
        "eval-listener/report.csv":
            "1b40b64cc4009e331b0d6103cc66773bc96b3d211319cdc298291effe36ea9ff",
    },
    "sm2x2-eps0.1-tv": {
        "gen-community/community.json":
            "3393aec27cd47bac708ad1212004d147b9bc3a59420528bcb1e29ad4b248d993",
        "collect/dataset.jsonl":
            "013ccb17abf09bca62e5f578a90dfdca64488568d5ee8c6d881e0dab4a4953d7",
        "collect/dataset.index.json":
            "2dbe46dea8a2c77189f06cd95e86551cb6ef445b98e7b1b6a2dc3edd40b77be4",
        "collect/semantics.json":
            "e4c4579fb0918497c27c3fd78ef68fe583741229a859861ed3315b8b022d1c04",
        "fit-broca/broca.json":
            "820c64015f64a1e3eb19c2d6718d5d3390f470d5280d555d21fbb4bed5cb8546",
        "fit-wernicke/wernicke.json":
            "bd9b177234720e387c25f6d697aecfced7f2c8594a8d4fafc8723b084210baac",
        "detect/report.json":
            "8323e46a22034c01d0062fe942747d1442ad58eae0910b2f3d4ffea58fc5dc04",
        "eval-speaker/report.json":
            "78b121eccd7f251e97a3235e28f6f4bab391c866356f72d7dc605bc29968b530",
        "eval-speaker/report.csv":
            "167bcf996bd7b62396bc848cc56d7fd93d2333b30c6e219f588260f48f64aa09",
        "eval-listener/report.json":
            "c596d8239a2d93c012462d441336a21f7fceb88ef519d8d03f3bbea9de352bd7",
        "eval-listener/report.csv":
            "5c1e477f19b598a409e3a35b78efca6331076c2d9f01dcbcc9baa7b1fb30cfd1",
    },
    "sm3x3-eps0.1-3s2l": {
        "gen-community/community.json":
            "46ca308406e2d974a099c4637ca08508e53a5212096b45e33d87755ebfbaba1d",
        "collect/dataset.jsonl":
            "c7661cdfbc5c5501b7f11fcab123826ba757db160bd084b8baf9c0861d9eb6a5",
        "collect/dataset.index.json":
            "6ba78461d282c4181d3c29c772ab568ffec629e079e37e6f40281dc7107f378d",
        "collect/semantics.json":
            "edcb0419277f5506c07496c46128739d0647cfa5dbe137f5858ce6e1d7aa06bd",
        "fit-broca/broca.json":
            "3e9d69c2a6e86a4ca8b21ed46a221aa33e50fd76e0faa7f7c9e36354d08aa245",
        "fit-wernicke/wernicke.json":
            "1e61b98b236eeb67ae8f75f54baf400de4aa1e095f0178fc74486efcc1185047",
        "detect/report.json":
            "4b9638bda5c7b463a09274ed48f495d22b327aab5602efbd52cc996dee5ab368",
        "eval-speaker/report.json":
            "e6c6879a88a0d68e4ae9088d0228a632f4778664e50dbad7f7957e71c0327371",
        "eval-speaker/report.csv":
            "fd0fce87afb77b6e79c28910d01f30286fc3c8d8e07233d15fcf098c4db6a13b",
        "eval-listener/report.json":
            "652560d2763f380b968acb2ab96d176c2b4a1418ba83bde73d543bcf6af4d601",
        "eval-listener/report.csv":
            "23d3d0af4ff1f38303ec933b9aed0f1b1db61b0b645964ab3c80b7ab8f042ddc",
    },
    "sm2x2-eps0.5-greedy": {
        "gen-community/community.json":
            "e3d2ce8b6f044cc86dc6b5c08864488f3d8d3f0ceb8a4be6c9ae5f3a5980f148",
        "collect/dataset.jsonl":
            "0ffe4e6b7cf50e37fc4b8808989c9a1f550bbd629fa77245b6180e9fdb2ae7d7",
        "collect/dataset.index.json":
            "5624e9f684d53864aa755cc08c6a510d62457a00b49023e56cbd677b4d398fe2",
        "collect/semantics.json":
            "ce4d03bfa8aa3d1fa3c2d4bde0f22c404a747878d22f523e648218b5964c6621",
        "fit-broca/broca.json":
            "331ec19452b97f12d4d46149089a9fd4d4bda44b5aa21e960bf68426e96adaf4",
        "fit-wernicke/wernicke.json":
            "6ff699b1ad75050e8ebaa015a0151c07f78c84bd61891932bb0f67aa7690d55e",
        "detect/report.json":
            "95d8f33cd434d532c282d651180c7c37fae25c134fa5dae3d6d13c3c79d157d8",
        "eval-speaker/report.json":
            "ab8efff0f5312dad19c15f5a28ab93f0a5c6a23356fb744872ffde8199d7f378",
        "eval-speaker/report.csv":
            "ebb6d3dbbf48a76f15eb20eb0d5be402e4169203da3391c09b44961069632656",
        "eval-listener/report.json":
            "4acdb9c4479994b00010e07d5c70e828d96ca26f5f5908f2edc08c3a57f259a1",
        "eval-listener/report.csv":
            "77c2204adbd164467a453154781313cd185aec5940392722a1ec965d7eff6790",
    },
}


def run_pipeline(config: dict, tmp_path) -> dict[str, str]:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    digests = {}
    for command, files in PIPELINE:
        assert main([command, "--config", str(path), "--out", str(out),
                     "--canonical"]) == EXIT_OK
        for name in files:
            digests[f"{command}/{name}"] = hashlib.sha256(
                _versionless((out / name).read_bytes())).hexdigest()
    return digests


def _versionless(text: bytes) -> bytes:
    """The bytes of an artifact with the installed scipy's name, which only
    `semantics.json` holds, written as "scipy"."""
    return text.replace(json.dumps(_solver_version()).encode(), b'"scipy"')


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_artifact_bytes_are_pinned(name, tmp_path, capsys):
    assert run_pipeline(CONFIGS[name], tmp_path) == DIGESTS[name]


@pytest.mark.parametrize("name", ["lewis4-eps0.1", "sm2x2-eps0.1-expected"])
def test_no_command_builds_records(name, tmp_path, capsys, monkeypatch):
    """collect, load, the fits and detect work on the stored record bodies:
    with `records` unreadable the pipeline still writes the pinned bytes."""
    from cooplang.data import InteractionDataset

    def records(self):
        raise AssertionError("a command built the per-episode records")

    monkeypatch.setattr(InteractionDataset, "records", property(records))
    assert run_pipeline(CONFIGS[name], tmp_path) == DIGESTS[name]
