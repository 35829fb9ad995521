"""Pinned CLI output: the sha256 of exit code and stdout (and of the map
file, for ``reduce``) for each command below, run in order on small seeded
``gen_random`` instances.

Any change to what a command prints changes its digest.  To see what a
digest covers, run ``python tests/test_golden_cli.py``: it prints every case
with its output.
"""

from __future__ import annotations

import hashlib
from io import StringIO
from pathlib import Path

import pytest

from stashpeel import gen_random, serialize
from stashpeel.cli import run
from stashpeel.stash_solvers import TIE_BREAKS

INSTANCES = {
    "g2": (10, 16, 2, 1),  # n, m, d, seed
    "g3": (9, 10, 3, 2),
    "vc": (5, 6, 2, 3),
    "vs": (6, 12, 2, 4),
    "v5": (9, 14, 2, 60308648),  # its k=2 d=2 vc reduction has minimum vertex stash 5
}


def _cases(tmp: Path):
    """(name, argv, pinned, save) for every pinned call, in run order: the
    text of each file in ``pinned`` is pinned too, and stdout is written to
    ``save`` for a later case to read."""
    f = {name: str(tmp / f"{name}.hg") for name in INSTANCES}
    p = lambda name: str(tmp / name)
    for g, k in (("g2", "2"), ("g2", "3"), ("g3", "2"), ("g3", "3")):
        yield f"peel-{g}-k{k}", ["peel", "--k", k, f[g]], (), None
    for g, k in (("g2", "2"), ("g2", "3"), ("g3", "2")):
        for mode in ("vertex", "edge"):
            yield f"exact-{g}-k{k}-{mode}", ["stash-exact", "--k", k, "--mode", mode, f[g]], (), None
            for tie in TIE_BREAKS:
                argv = ["stash-greedy", "--k", k, "--mode", mode, "--tie-break", tie, "--seed", "7", f[g]]
                yield f"greedy-{g}-k{k}-{mode}-{tie}", argv, (), None
    yield "2edge-g2", ["stash-2edge", f["g2"]], (), None
    yield "cover-g2", ["cover", f["g2"]], (), None
    yield "cover-vc", ["cover", f["vc"]], (), None
    argv = ["reduce", "--from", "vc", "--k", "3", "--d", "2", f["vc"]]
    yield "reduce-vc", argv, (f["vc"] + ".map",), p("vc.red")
    argv = ["reduce", "--from", "vstash", "--k", "3", "--d", "2", "--map-out", p("vs.map"), f["vs"]]
    yield "reduce-vstash", argv, (p("vs.map"),), None
    yield "exact-vc-red", ["stash-exact", "--k", "3", "--mode", "vertex", p("vc.red")], (), p("vc.stash")
    yield "lift-vc", ["lift", "--map", f["vc"] + ".map", "--stash", p("vc.stash")], (), None
    argv = ["stash-greedy", "--k", "3", "--mode", "vertex", "--tie-break", "seeded_random", p("vc.red")]
    yield "greedy-vc-red", argv, (), p("vc.greedy")
    yield "lift-vc-greedy", ["lift", "--map", f["vc"] + ".map", "--stash", p("vc.greedy")], (), None
    yield "exact-vs", ["stash-exact", "--k", "3", "--mode", "vertex", f["vs"]], (), p("vs.stash")
    yield "lift-push", ["lift", "--map", p("vs.map"), "--stash", p("vs.stash")], (), p("vs.estash")
    yield "lift-edge", ["lift", "--map", p("vs.map"), "--stash", p("vs.estash")], (), None
    argv = ["reduce", "--from", "vc", "--k", "2", "--d", "2", "--map-out", p("v5.map"), f["v5"]]
    yield "reduce-v5", argv, (), p("v5.red")
    yield "exact-v5-red", ["stash-exact", "--k", "2", "--mode", "vertex", p("v5.red")], (), None
    argv = ["stash-exact", "--k", "2", "--mode", "vertex", "--cap", "4", p("v5.red")]
    yield "exact-v5-red-cap4", argv, (), None
    for kind in ("ck", "b2", "b3", "simple-stable", "stable", "tree-stable"):
        yield f"gadget-{kind}", ["gadget", "--type", kind], (), None
    yield "gadget-ck-k4-d3", ["gadget", "--type", "ck", "--k", "4", "--d", "3"], (), None
    yield "gadget-stable-m3", ["gadget", "--type", "stable", "--m", "3"], (), None
    yield "gadget-tree-stable-p2-d3", ["gadget", "--type", "tree-stable", "--p", "2", "--d", "3"], (), None
    yield "verify-gadgets-grid", ["verify-gadgets", "--grid"], (), None


def outputs(tmp: Path) -> dict[str, str]:
    """Run every case in order; each output is its exit code, its stdout
    with ``tmp`` blanked out, and the text of its pinned files."""
    for name, params in INSTANCES.items():
        (tmp / f"{name}.hg").write_text(serialize(gen_random(*params)))
    result = {}
    for name, argv, pinned, save in _cases(tmp):
        out, err = StringIO(), StringIO()
        code = run(argv, out, err)
        text = f"exit {code}\n" + out.getvalue().replace(str(tmp), "TMP")
        for path in pinned:
            text += f"--- {Path(path).name}\n" + Path(path).read_text()
        result[name] = text
        if save is not None:
            Path(save).write_text(out.getvalue())
    return result


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


GOLDEN = {
    "peel-g2-k2": "0b8bb6faf0dedac92d7073683bd7fd31b206f38a731247d737dc17f1d3d3d6b6",
    "peel-g2-k3": "069815729d8400e62a09792a77a2d10cbd7ea7c31b79a5ae9de313e7efc01d06",
    "peel-g3-k2": "8298d4b6125f5379682343b324f56b3196e750015159735c4019cc64be3a21ea",
    "peel-g3-k3": "b2ff4a9777017c3d35cfed62c2c531c56a9a7a003ed18c2cf7e86580f02aca6f",
    "exact-g2-k2-vertex": "0094f4c9c54c7f54c80fb0cfad359abaabe15c3fa538abad613a7810a52bbe43",
    "greedy-g2-k2-vertex-max_degree": "70c7098a10731d9ff9b4739d1a5d890cb73092b7e2d3afe3fe8b224473b9f815",
    "greedy-g2-k2-vertex-min_id": "70c7098a10731d9ff9b4739d1a5d890cb73092b7e2d3afe3fe8b224473b9f815",
    "greedy-g2-k2-vertex-seeded_random": "37c32c4ddf9113f98e39435a0c9bd45e667add5f234dce01887628c666d338e6",
    "exact-g2-k2-edge": "0c6868c2c44f053619cef1cc383e1d530743b574ca192ace9168a9ccf46a86e3",
    "greedy-g2-k2-edge-max_degree": "749d99f321c705d5e394b5c499655b3b7c4ea64d72a3fd35a1ced5241c56000d",
    "greedy-g2-k2-edge-min_id": "434445e3b7c7ec551f985036ce8ac3659edb6f8ae5f6073d6acbf129c9219d60",
    "greedy-g2-k2-edge-seeded_random": "a3a2d743e4bf832868ba986a5bd6e341569762c73574684182814fa22d0fb292",
    "exact-g2-k3-vertex": "791ba75e7f733f6030eff3ca918b59e5d8e429abc771693564e426e0d80a9a8e",
    "greedy-g2-k3-vertex-max_degree": "dcbc2422467265daa0682628c049b2293c337fc9682d073095c2d7148f78cc7e",
    "greedy-g2-k3-vertex-min_id": "dcbc2422467265daa0682628c049b2293c337fc9682d073095c2d7148f78cc7e",
    "greedy-g2-k3-vertex-seeded_random": "66af26d06f3a0ff2366ee754dde57858349f93d825fac69680e734dead87be42",
    "exact-g2-k3-edge": "aecedcbe2b6e84ffa0cc698c9ca28dc2af148544db1afc766bd5c244af144b21",
    "greedy-g2-k3-edge-max_degree": "0c9217cf974a967e242834b7e7f0240b9c95c5ced6256512f6d95785fb5671a3",
    "greedy-g2-k3-edge-min_id": "3304d3c1ee5b1af9e002e185cc490bf9db0792d806c02b9d0cb51d76b13d13dd",
    "greedy-g2-k3-edge-seeded_random": "8b4fb9208be03f736270d053be1137878a9fb52b35e73d95e795fe1259a8ce87",
    "exact-g3-k2-vertex": "ef87344fdd26f39228cbb020d917111091f97e1187870d886531dc332dfc6dd9",
    "greedy-g3-k2-vertex-max_degree": "409da1e8f8f1418b329015c4bd4ffbfe632d64583d37c68fb084d78db6960606",
    "greedy-g3-k2-vertex-min_id": "0a38a0010900b031705552a4bdd5a8a3cac0f06a6b20046310557dcccfe6a4b8",
    "greedy-g3-k2-vertex-seeded_random": "139156366372414bdd9cbd6fed45d3ec07ff96962869eec9122b624d4a0e33dd",
    "exact-g3-k2-edge": "1cdd617528a1dbd74e74297fdb8c517d6e86799c94a8f19877a1e745b710fe03",
    "greedy-g3-k2-edge-max_degree": "399834540db041c6543bbaa4edf44d460a33d5d2bf8e925ae9e002b9a003515f",
    "greedy-g3-k2-edge-min_id": "c1c19d184c22be5a3057688b9c4c4f94f24c4d23d9889bb0adaaa000bb468cb0",
    "greedy-g3-k2-edge-seeded_random": "2dc93604d78a49dee7887e90e28416f289b48015ab66400ab50940cec810fb4b",
    "2edge-g2": "93bc343f6d0dce29f66be8e47f272b87ca87da923e6d01ac792b263b90617755",
    "cover-g2": "37a8b8ea300a700cb32296f1a166fcb811e2c10237d8628c1ea3dc5f5a8521ee",
    "cover-vc": "c343d41d84ab488498e4d4fbd6a08191600b869264ea74f22d66bfec759b3f4c",
    "reduce-vc": "0a9477020db9e3345edd8ae3870ba16f35ab6ae1b79cfa69c78ceeba51ed8c2e",
    "reduce-vstash": "849dad64e65de82a7844fdb6c03bef8c464f174fde672d21f4ab70190be3c18a",
    "exact-vc-red": "c343d41d84ab488498e4d4fbd6a08191600b869264ea74f22d66bfec759b3f4c",
    "lift-vc": "07a7320d4216c90ea9c96bc780a67969cff52fef0a38d6f9f1b30522706d5caa",
    "greedy-vc-red": "c8e75d24f4f3c7041acdf7c046c02ad613affc03aa6e98c6a6e427df901d40de",
    "lift-vc-greedy": "4f7c0d0deaeda4a7f6a02d20bf91c811bd995a37674bf1d2858f3cb6557771a1",
    "exact-vs": "791ba75e7f733f6030eff3ca918b59e5d8e429abc771693564e426e0d80a9a8e",
    "lift-push": "bbb92e33fddeab03098b8acdf080f99e1b3a78c0705c48bd2057ccbd58dfbbdd",
    "lift-edge": "a327466783be4049feb0a9fcc00e8c1ab24afa87dcfb7d78795bbc105236b3c7",
    "reduce-v5": "fb6bcfa04ff408702270d92ac820c7520300010f10afc009a0b12bb615b2d651",
    "exact-v5-red": "c9ad88ff163d461272c0edb8027d284470a8f33682042f026a2e7f6a9d60bb5f",
    "exact-v5-red-cap4": "0c6868c2c44f053619cef1cc383e1d530743b574ca192ace9168a9ccf46a86e3",
    "gadget-ck": "deaf1a8d152ab7a9bb24630cc3b5662b3e088af34d65cae6ee999fa6c06f669d",
    "gadget-b2": "9bfdd94ef24a563fdfd7f3918470e61c3ddb128f0c6c09a491dcb676f156df82",
    "gadget-b3": "f01d3ff2b1bd0fc504403a0ae080c69a65f75fd0f791e15d236a62c475ab8a9a",
    "gadget-simple-stable": "95b90f2aab840117bcf78be2ce633b25dbaa85477abbcceb5d45b337cf1ef714",
    "gadget-stable": "95b90f2aab840117bcf78be2ce633b25dbaa85477abbcceb5d45b337cf1ef714",
    "gadget-tree-stable": "5362fb632b157f283b9135804a517da6491d939d8635435911a91f389c9e4aff",
    "gadget-ck-k4-d3": "c0286af21792a82466c2b0e06f8c8cb9ff626abc6325ccb1f3586a894e1c77c8",
    "gadget-stable-m3": "9d05d63b20fda1f371914f5bfb6b9ddd30208bcf7fe9d6334f7c81ce511904c6",
    "gadget-tree-stable-p2-d3": "4f0c8603c485c883fd4851b900f95b42e405912fe3a3a9a27eb893ed835afbbe",
    "verify-gadgets-grid": "2a73b0b8b80a1e225ed544a149052eccac232bc1b6842a1c8e71b7f7d86e39f6",
}


@pytest.fixture(scope="module")
def golden_outputs(tmp_path_factory):
    return outputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_is_pinned(golden_outputs, name):
    assert digest(golden_outputs[name]) == GOLDEN[name], golden_outputs[name]


def test_every_case_is_pinned(golden_outputs):
    assert sorted(golden_outputs) == sorted(GOLDEN)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name, text in outputs(Path(tmp)).items():
            print(f"=== {name} {digest(text)}\n{text}")
