"""Pinned output digests: a guard that a change meant to keep every output
byte keeps them.

Each digest is the sha256 of one file that a ``gantrace`` command writes
from a shipped config at seed 0: the influence table in full and on a
target subset, the oracle table at one epoch and at all epochs, the
accuracy and cleansing reports, and the plot data that ``gantrace report``
writes from the cleansing report and, for ``normal2d`` only, the harmfulness
scatter from the k=1 influence table.  The cleansing report is pinned at
seed 1 as well: on ``digits8_smoke`` no instance qualifies as harmful under
FID at seed 0, so only seed 1 replays an FID selection.
The commands run on a trace that ``gantrace train`` stored, so the
classifier and evaluation sets are the ones the CLI draws.  As in
``test_trace_digests``, the test skips and names both versions where NumPy
or its BLAS differ from the recorded ones.

Run this file as a script to print the digests of the current code.
"""

import hashlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from gantrace.cli import main as cli_main  # noqa: E402
from test_trace_digests import skip_unless_pinned_build  # noqa: E402

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# The small target and removal counts keep each config's chain to seconds.
COMMANDS = {
    "influence": ["influence", "--k", "1", "--out", "{out}/influence.csv"],
    "influence_targets": ["influence", "--k", "1", "--targets", "5",
                          "--out", "{out}/subset.csv"],
    "oracle": ["oracle", "--k", "1", "--targets", "5", "--out", "{out}/oracle.csv"],
    "oracle_all": ["oracle", "--targets", "5", "--out", "{out}/oracle_all.csv"],
    "accuracy": ["accuracy", "--seeds", "1", "--targets", "5", "--out", "{out}/accuracy"],
    "cleanse": ["cleanse", "--seeds", "1", "--n-harmful", "5,10", "--out", "{out}/cleanse"],
    # The later --seed overrides the common --seed 0.
    "cleanse_seed1": ["cleanse", "--seed", "1", "--seeds", "1", "--n-harmful", "5,10",
                      "--out", "{out}/cleanse_seed1"],
    "report": ["report", "--from", "{out}/cleanse", "--out", "{out}/report"],
}

# The influence table each config's report draws its scatter from: none
# for the 64-d digits.
REPORT_SCORES = {"digits8_smoke.ini": [],
                 "normal2d_desk.ini": ["--scores", "{out}/influence.csv"]}

DIGESTS = {
    "digits8_smoke.ini": {
        "accuracy/accuracy.csv": "c23648227d877ea55b0ee47a9b76bc1805b4be9cf5d8d7bacfd8a0606367ee57",
        "accuracy/accuracy.json": "d97a69ece1d391c13be1e3ac777f3ddcc09ab9c9d59a6a672d245f1079aad4db",
        "cleanse/cleansing.csv": "fc8662ea2c958ae6af40f8fa153920832d333d1876a54a266c696d5a11d0bffe",
        "cleanse/cleansing.json": "297f56150ac9197ac0e53f0d35995f2f048fb4ecd483659d491759f72ee29ead",
        "cleanse/curves.csv": "380c4af5e3ab9134456b31f37a669fa0cbe4732e60d16575e13d5735f6932705",
        "cleanse_seed1/cleansing.csv": "0a9fead0661654f65d5465ad5ec6fe49ea1b3c6f81841c0dfdcaedc69a991f00",
        "cleanse_seed1/cleansing.json": "76d0ed96fc2b6d6bff25eeff5bc56698999feee51a24022f11e900bef4c604f4",
        "cleanse_seed1/curves.csv": "0e11129b0b0cb2dab139d1b0957584ab8ab41aa192c4184971b02dedc62c4aa9",
        "influence.csv": "591eaf2485bba9daa2fa1af1404392f373db1d6a9dcf2ccc814993454719ec0d",
        "influence.json": "02a4c3a423a0ae39db392df8e7cf947d9fc5a70f76a27e8a8c3a09d4a2486bed",
        "oracle.csv": "ef20b69761ed88c84040ef6f85930b97c80fa74ff21b3e60d41761bb6d422eb8",
        "oracle_all.csv": "38125472dfc62d4aba75f59980c06077b44234216134c0a70e1c5dd427d6508f",
        "report/cleansing_curves.csv": "380c4af5e3ab9134456b31f37a669fa0cbe4732e60d16575e13d5735f6932705",
        "subset.csv": "bab6841e820fbb511f548097091f6477cbd683ecbd5c4e2e7b17c54ce2a316f6",
        "subset.json": "a780efa9b595dbe283e922a3f2786123c3b40882269a3fdab1f317ad3f35e88d",
    },
    "normal2d_desk.ini": {
        "accuracy/accuracy.csv": "e2b61c1b10c2c0c04e992554ea88b50e85a23f97cbb8c720320c1b2385f9c834",
        "accuracy/accuracy.json": "73e5963a37e7fd0c400fc5f81b533d6f8e454eb7df3d090bff517edf6531d6ef",
        "cleanse/cleansing.csv": "d054f9d2a4c9cf6d04b3fb9b304736eebd29e32a20c440e12e19cb5c563c73e2",
        "cleanse/cleansing.json": "5ccebe32b48bc240d72d01f2073ec8cd8592124fc8fd328c9a67b9d220aa3053",
        "cleanse/curves.csv": "da7e6218e215c492fa10aeaf54f9185d0da6985e913ac96925e7ed5d4dd3a304",
        "cleanse_seed1/cleansing.csv": "7bfb497962eb49273e4343706fe017e53ac64f98b784830fcb9edb397ff366d4",
        "cleanse_seed1/cleansing.json": "31f42735e2208ecc1174444afe7cf4e2db8ebfec6fba6adf9bea9ea864407475",
        "cleanse_seed1/curves.csv": "dc560cfc35832cd156c0b680df4dab70320c1b4b7c750588bd128ea3c075f328",
        "influence.csv": "69053b75a58b5535c0093ccdc3deeb4cadabab5acebd7499ff7f680ef774767a",
        "influence.json": "8b1d022b88c88114553e3e42c8280c9f241530fcc916253c42311186952bb95b",
        "oracle.csv": "0e185102260dad40759e697a2538998594449370c7355b1b4da0f199e990d707",
        "oracle_all.csv": "3c3275832e9afc215e59788a3b5ce93dd08a6ce82d42321072d64c5a54db4680",
        "report/cleansing_curves.csv": "da7e6218e215c492fa10aeaf54f9185d0da6985e913ac96925e7ed5d4dd3a304",
        "report/harmfulness_scatter.csv": "bd983fcb20711eaac6f1cc8bb6dc486da41f28fd9ad81eeff9f39bbe07e1da1d",
        "subset.csv": "666539e55f048fa0caeea746a503ffe01c135f90f231fcb26c036d3a3eee1442",
        "subset.json": "ecfb5163a89f408bb7c0909fd4a8958505adac3e2ccfadae847213a4842ee728",
    },
}


def output_digests(name: str, workdir: Path) -> dict[str, str]:
    """sha256 of every file the commands write for one config, by relative path."""
    config = str(CONFIGS / name)
    trace = workdir / "trace"
    out = workdir / "out"
    out.mkdir(parents=True)
    common = ["--config", config, "--seed", "0"]
    assert cli_main(["train", *common, "--out", str(trace)]) == 0
    extras = {"influence": ["--trace", str(trace)], "oracle": ["--trace", str(trace)],
              "report": REPORT_SCORES[name]}
    for command in COMMANDS.values():
        argv = [part.format(out=out) for part in [*command, *extras.get(command[0], [])]]
        assert cli_main([argv[0], *common, *argv[1:]]) == 0
    return {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_command_outputs_are_pinned(name, tmp_path, capsys):
    skip_unless_pinned_build()
    if name == "digits8_smoke.ini":
        # At seed 0 no instance qualifies as harmful under FID, so the
        # cleansing at 5 and at 10 each warn once.
        with pytest.warns(RuntimeWarning, match="qualify") as caught:
            digests = output_digests(name, tmp_path)
        assert sorted(str(warning.message) for warning in caught) == [
            f"only 0 of {n} requested instances qualify as harmful" for n in (10, 5)]
    else:
        digests = output_digests(name, tmp_path)
    assert digests == DIGESTS[name]


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile
    import warnings

    warnings.simplefilter("ignore", RuntimeWarning)
    for config_name in ("digits8_smoke.ini", "normal2d_desk.ini"):
        with tempfile.TemporaryDirectory() as scratch, contextlib.redirect_stdout(io.StringIO()):
            digests = output_digests(config_name, Path(scratch))
        print(f'    "{config_name}": {{')
        for path, digest in digests.items():
            print(f'        "{path}": "{digest}",')
        print("    },")
