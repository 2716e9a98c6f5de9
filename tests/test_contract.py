"""Generated config inputs hold the exit-code contract.

Every key of ``config._KEYS`` but the file paths is set, one at a time, to
each of a fixed list of boundary and garbage texts on a tiny normal2d
config and a tiny digits8 config.  Each input is either refused by
``load_config`` with a ``ValueError``, which the CLI turns into one
``error:`` line before any work, or ``gantrace train`` runs it to exit 0
with nothing on stderr or to exit 2 with one ``numerical failure:`` line:
a usage error never surfaces after the config has loaded.
"""

import pytest

from gantrace import config
from gantrace.cli import main as cli_main
from gantrace.config import load_config

BASES = {
    "normal2d": {
        "dataset": {"kind": "normal2d", "n_train": "40"},
        "architecture": {"latent_dim": "2", "hidden_gen": "3", "hidden_disc": "3"},
        "training": {"epochs": "1", "batch_size": "20", "seed": "0"},
        "evaluation": {"metrics": "all", "n_reference": "40", "n_test": "40"},
        "influence": {"k_epochs": "1", "n_targets": "5", "n_permutations": "10"},
        "cleansing": {"n_harmful": "3", "methods": "influence", "n_seeds": "1"},
    },
    "digits8": {
        "dataset": {"kind": "digits8", "n_train": "40", "n_classes": "3"},
        "architecture": {"latent_dim": "2", "hidden_gen": "3", "hidden_disc": "3"},
        "training": {"epochs": "1", "batch_size": "20", "seed": "0"},
        "evaluation": {"metrics": "is,fid", "n_reference": "40", "n_test": "40",
                       "classifier_hidden": "4,3", "classifier_epochs": "1",
                       "classifier_batch": "20"},
        "influence": {"k_epochs": "1", "n_targets": "5", "n_permutations": "10"},
        "cleansing": {"n_harmful": "3", "methods": "influence", "n_seeds": "1"},
    },
}

# Boundary and garbage texts; none sets a size or an epoch count above 64.
TEXTS = ["0", "-1", "1", "2", "3", "x", "", "1e-300", "1e300", "0,1", "1,1", "64", "-0"]

KEYS = sorted(key for key, (_, name, _) in config._KEYS.items() if not name.endswith("_path"))


def _write(path, sections):
    path.write_text("".join(f"[{section}]\n" + "".join(f"{key} = {text}\n"
                                                        for key, text in entries.items())
                            for section, entries in sections.items()))


@pytest.mark.parametrize("key", KEYS)
@pytest.mark.parametrize("base", sorted(BASES))
def test_each_config_text_is_refused_at_load_or_trains(tmp_path, capsys, base, key):
    section, name = key.split(".")
    broken = []
    for number, text in enumerate(TEXTS):
        path = tmp_path / f"{number}.ini"
        _write(path, {**BASES[base], section: {**BASES[base][section], name: text}})
        try:
            load_config(path)
        except ValueError:
            continue
        try:
            code = cli_main(["train", "--config", str(path), "--out", str(tmp_path / f"{number}")])
        except Exception as exc:   # an escape breaks the contract too; name its input
            code = repr(exc)
        err = capsys.readouterr().err
        if not (code == 0 and err == "" or code == 2 and err.count("\n") == 1
                and err.startswith("numerical failure: ")):
            broken.append((text, code, err))
    assert broken == []
