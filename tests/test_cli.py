import os

import pytest

from consistency_lab.cli import main
from consistency_lab.config import parse_config
from consistency_lab.history import GET, INITIAL, PUT, History
from consistency_lab.store import ConfigError

MINIMAL = """
[experiment]
protocol = cops
seed = 6

[topology]
num_datacenters = 3
partitions_per_dc = 1

[network]
ntt = 2500

[workload]
clients_per_dc = 1
ops_per_client = 10
pattern = ratio
reads = 3
writes = 1
keys_per_partition = 5
"""


# Dynamo under overload: late coordinator replies to retried ops
LATE_REPLY = """
[experiment]
protocol = dynamo
seed = 4

[topology]
num_datacenters = 3
partitions_per_dc = 2
capacity = 600

[network]
ntt = 2500
jitter = 0.1

[workload]
clients_per_dc = 6
ops_per_client = 6
pattern = ratio
reads = 1
writes = 1
keys_per_partition = 2

[run]
op_timeout = 1000
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def seq_history_text(ops):
    h = History()
    for i, (proc, kind, key, value) in enumerate(ops):
        if kind == PUT:
            h.record_call(proc, PUT, key, value, i)
            h.record_resp(proc, PUT, key, None, i)
        else:
            h.record_call(proc, GET, key, None, i)
            h.record_resp(proc, GET, key, value, i)
    return h.to_text()


def test_run_writes_artifacts(tmp_path, capsys):
    cfg = write(tmp_path, "exp.ini", MINIMAL)
    out = str(tmp_path / "out")
    assert main(["run", cfg, "--out", out]) == 0
    for name in ("metrics.csv", "history.txt", "trace.txt"):
        assert os.path.exists(os.path.join(out, name))
    assert "throughput" in capsys.readouterr().out


def test_run_reproducible_metrics(tmp_path):
    cfg = write(tmp_path, "exp.ini", MINIMAL)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", cfg, "--out", out1]) == 0
    assert main(["run", cfg, "--out", out2]) == 0
    for name in ("metrics.csv", "history.txt", "trace.txt"):
        with open(os.path.join(out1, name), "rb") as f1, open(
            os.path.join(out2, name), "rb"
        ) as f2:
            assert f1.read() == f2.read()


def test_run_counts_each_op_once(tmp_path, capsys):
    cfg = write(tmp_path, "late.ini", LATE_REPLY)
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
    words = capsys.readouterr().out.split()
    ok, failed = int(words[1]), int(words[4])
    assert ok + failed == 3 * 6 * 6


def test_run_config_error_exit_2(tmp_path, capsys):
    bad = MINIMAL.replace("partitions_per_dc = 1", "partitions_per_dc = 1\nr = 9")
    cfg = write(tmp_path, "exp.ini", bad)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "r" in capsys.readouterr().err


def test_seed_env_override(tmp_path, monkeypatch):
    cfg = write(tmp_path, "exp.ini", MINIMAL)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    main(["run", cfg, "--out", out1])
    monkeypatch.setenv("CONSISTENCY_LAB_SEED", "999")
    main(["run", cfg, "--out", out2])
    with open(os.path.join(out1, "history.txt")) as f1, open(
        os.path.join(out2, "history.txt")
    ) as f2:
        assert f1.read() != f2.read()


def test_check_empty_history_all_models(tmp_path, capsys):
    path = write(tmp_path, "h.txt", "")
    for model in ("lin", "seq", "causal", "pram"):
        assert main(["check", path, "--model", model]) == 0


def test_check_causal_violation_exit_codes(tmp_path):
    text = seq_history_text(
        [
            ("p1", PUT, "x", 1),
            ("p3", GET, "x", 1),
            ("p3", PUT, "y", 2),
            ("p2", GET, "y", 2),
            ("p2", GET, "x", INITIAL),
        ]
    )
    path = write(tmp_path, "h.txt", text)
    assert main(["check", path, "--model", "causal"]) == 1
    assert main(["check", path, "--model", "pram"]) == 0


def test_check_oversized_history_exit_2(tmp_path, capsys):
    text = seq_history_text([("p1", PUT, "x", i) for i in range(13)])
    path = write(tmp_path, "h.txt", text)
    assert main(["check", path, "--model", "lin"]) == 2


def test_check_parse_error_exit_2(tmp_path):
    path = write(tmp_path, "h.txt", "1 p1 resp GET x 1 nonsense extra stuff\n")
    assert main(["check", path, "--model", "lin"]) == 2


def test_sweep_unknown_axis_exit_2(tmp_path):
    cfg = write(tmp_path, "exp.ini", MINIMAL)
    assert main(["sweep", cfg, "--axis", "nodes", "--values", "1,2",
                 "--out", str(tmp_path / "o")]) == 2


def test_sweep_writes_table(tmp_path, capsys):
    cfg = write(tmp_path, "exp.ini", MINIMAL)
    out = str(tmp_path / "o")
    rc = main(["sweep", cfg, "--axis", "partitions", "--values", "1,2",
               "--out", out, "--protocols", "cops,eventual"])
    assert rc == 0
    with open(os.path.join(out, "sweep.csv")) as f:
        lines = f.read().strip().split("\n")
    assert len(lines) == 5  # header + 2 values x 2 protocols
    assert os.path.isdir(os.path.join(out, "point_cops_1"))


def test_run_misspelled_option_exit_2(tmp_path, capsys):
    text = MINIMAL.replace("partitions_per_dc = 1", "partitons_per_dc = 8")
    cfg = write(tmp_path, "exp.ini", text)
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "topology.partitons_per_dc" in capsys.readouterr().err


def _variant(protocol, *edits, extra=""):
    text = MINIMAL.replace("protocol = cops", f"protocol = {protocol}")
    for old, new in edits:
        text = text.replace(old, new)
    return text + extra


# configs that passed validation but ended in a traceback, a hang or exit 3
OUT_OF_RANGE = [
    pytest.param(_variant("cops", ("ntt = 2500", "ntt = 2500\njitter = nan")), "jitter",
                 id="jitter-nan"),
    pytest.param(_variant("dynamo", ("ntt = 2500", "ntt = 2500\njitter = inf")), "jitter",
                 id="jitter-inf"),
    pytest.param(_variant("gentlerain", ("ntt = 2500", "ntt = 2500\nloss_rate = 1")),
                 "loss_rate", id="loss-rate-1"),
    pytest.param(_variant("gentlerain", extra="\n[clocks]\nmax_skew = -1\n"), "max_skew",
                 id="negative-skew"),
    pytest.param(_variant("dynamo", extra="\n[run]\nquorum_timeout = -1\n"),
                 "quorum_timeout", id="negative-quorum-timeout"),
    pytest.param(_variant("cops", ("num_datacenters = 3", "num_datacenters = 4"),
                          ("ntt = 2500", "ntt_row_0 = 0,2500,2500\nntt_row_1 = 2500,0,2500\n"
                                         "ntt_row_2 = 2500,2500,0")),
                 "ntt matrix size", id="three-rows-four-datacenters"),
]


@pytest.mark.parametrize("text, what", OUT_OF_RANGE)
def test_run_out_of_range_exit_2(tmp_path, capsys, text, what):
    # rejected at parse time, before anything runs
    with pytest.raises(ConfigError, match=what):
        parse_config(text)
    cfg = write(tmp_path, "exp.ini", text)
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert what in capsys.readouterr().err
