"""Hostile config values through every command.

One key of ``config._SCHEMA`` takes a hostile value (non-finite, negative,
zero, tiny or huge, empty, or a malformed list) in an otherwise valid
config, and one command runs on it. Whatever the value, the command exits
0, 2 (configuration or input error) or 3 (divergence), never with a
traceback, and an exit 2 creates no output directory.
"""

import contextlib
import io
import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gdcn.cli import main
from gdcn.config import _SCHEMA

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

KEYS = [f"{section}.{key}" for section, keys in _SCHEMA.items()
        for key in keys]
HOSTILE = ["nan", "inf", "-inf", "-1", "-0.5", "0", "1e308", "-1e308",
           "1e-308", "", ",", "1,,2", "2,", "-1,2", "0,0", "a,b"]
COMMANDS = ["train", "eval", "uq", "diagnose", "sweep-blocks"]

# A learned 2-layer GDC model on the synthetic graph, trained for 1 epoch.
BASE = {
    "data.per_class_train": "2", "data.n_val": "4", "data.n_test": "6",
    "model.hidden_dims": "16", "model.regularizer": "gdc",
    "model.learned": "true", "model.estimator": "concrete",
    "model.n_blocks": "1,2",
    "train.epochs": "1", "train.seeds": "0",
    "sweep.blocks": "1,2",
    "output.dir": "out",
}


def write_ini(path, values):
    sections = {}
    for where, value in values.items():
        section, key = where.split(".")
        sections.setdefault(section, []).append(f"{key} = {value}")
    with open(path, "w", encoding="utf-8") as fh:
        for section, lines in sections.items():
            fh.write(f"[{section}]\n" + "\n".join(lines) + "\n\n")


@pytest.fixture(scope="module")
def inputs(synthetic_files, tmp_path_factory):
    """The base config's values and a checkpoint trained on them."""
    content, cites = synthetic_files
    base = dict(BASE, **{"data.content": content, "data.cites": cites})
    root = tmp_path_factory.mktemp("fuzz")
    ini = str(root / "base.ini")
    write_ini(ini, base)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", "--config", ini, "--out", str(root)]) == 0
    return base, str(root / "ckpt_seed0.bin")


@settings(max_examples=500, deadline=None)
@given(key=st.sampled_from(KEYS), value=st.sampled_from(HOSTILE),
       command=st.sampled_from(COMMANDS))
@example(key="output.dir", value="", command="train")
@example(key="model.temperature", value="1e-308", command="train")
def test_hostile_value_exits_cleanly(inputs, key, value, command):
    base, checkpoint = inputs
    with tempfile.TemporaryDirectory() as cwd:
        ini = os.path.join(cwd, "run.ini")
        write_ini(ini, dict(base, **{key: value}))
        argv = [command, "--config", ini]
        if command in ("eval", "uq"):
            argv += ["--checkpoint", checkpoint]
        err = io.StringIO()
        old = os.getcwd()
        os.chdir(cwd)   # output.dir is relative to the working directory
        try:
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                rc = main(argv)
        finally:
            os.chdir(old)
        assert rc in (0, 2, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if rc == 2:
            assert os.listdir(cwd) == ["run.ini"], err.getvalue()
