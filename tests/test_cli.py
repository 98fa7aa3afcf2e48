import ast
import hashlib

import pytest

from fppkit.cli import main
from fppkit.config import parse_config, read_csv, spec_from_config, write_csv
from fppkit.distributions import DistributionSpec
from fppkit.geodesics import GeodesicDag
from fppkit.lattice import L1Ball
from fppkit.renormalization import nu_level


def test_parse_config():
    cfg = parse_config(
        """
        # a comment
        atoms = [(1.0, 0.5), (2.0, 0.5)]
        trials = 12
        pattern = av_edge
        pattern_params = {"M": 2.0}
        n_list = [8, 10]
        """
    )
    assert cfg["trials"] == 12
    assert cfg["pattern"] == "av_edge"
    spec = spec_from_config(cfg)
    assert spec.rho == 1.0 and spec.t_max == 2.0


def test_csv_round_trip(tmp_path):
    rows = [dict(a=1, b=2.5, c="x"), dict(a=2, b=1e-9, c="y")]
    path = str(tmp_path / "t.csv")
    write_csv(path, rows, "test")
    with open(path) as fh:
        assert fh.readline().startswith("# fppkit schema=test")
    back = read_csv(path)
    assert back[0]["a"] == 1 and back[1]["b"] == 1e-9


def _write(tmp_path, text):
    p = tmp_path / "cfg.txt"
    p.write_text(text)
    return str(p)


def test_cli_deficiency(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        """
        atoms = [(1.0, 0.5), (2.0, 0.5)]
        pattern = av_edge
        pattern_params = {"M": 2.0}
        n_list = [8]
        trials = 5
        seed = 3
        """,
    )
    out = str(tmp_path / "out.csv")
    assert main(["deficiency", "--config", cfg, "--out", out]) == 0
    rows = read_csv(out)
    assert len(rows) == 5
    assert {"n", "trial", "seed", "min_count"} <= set(rows[0])


def test_cli_seed_and_trials_override(tmp_path):
    cfg = _write(
        tmp_path,
        """
        atoms = [(1.0, 0.5), (2.0, 0.5)]
        pattern = av_edge
        pattern_params = {"M": 2.0}
        n_list = [8]
        trials = 5
        seed = 3
        """,
    )
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    main(["deficiency", "--config", cfg, "--out", out1, "--seed", "9", "--trials", "3"])
    main(["deficiency", "--config", cfg, "--out", out2, "--seed", "9", "--trials", "3"])
    assert read_csv(out1) == read_csv(out2)
    assert len(read_csv(out1)) == 3


def test_cli_shift(tmp_path):
    cfg = _write(
        tmp_path,
        """
        atoms = [(1.0, 0.5), (2.0, 0.5)]
        n_list = [8, 10]
        b_list = [0.1, 0.5]
        trials = 4
        seed = 1
        """,
    )
    out = str(tmp_path / "s.csv")
    assert main(["shift", "--config", cfg, "--out", out]) == 0
    rows = read_csv(out)
    # every n of n_list, two b per trial
    want = [(n, k) for n in (8, 10) for k in range(4) for _ in range(2)]
    assert [(r["n"], r["trial"]) for r in rows] == want
    assert all(r["holds"] == 1 for r in rows)


def test_cli_gap_and_shape(tmp_path):
    cfg = _write(
        tmp_path,
        """
        atoms = [(1.0, 0.5), (2.0, 0.5)]
        k = 4
        l = 2
        r = 1.0
        s = 2.0
        n_list = [10]
        trials = 4
        seed = 1
        directions = [(1, 0)]
        """,
    )
    assert main(["gap", "--config", cfg, "--out", str(tmp_path / "g.csv")]) == 0
    assert main(["shape", "--config", cfg, "--out", str(tmp_path / "sh.csv")]) == 0


def test_cli_calibrate(tmp_path, capsys):
    cfg = _write(tmp_path, "atoms = [(1.0, 0.5), (2.0, 0.5)]\ntrials = 40\nseed = 2\n")
    out = str(tmp_path / "cal.csv")
    assert main(["calibrate", "--config", cfg, "--out", out]) == 0
    row = read_csv(out)[0]
    assert 0 < row["delta"] < 1 and 0 < row["alpha"] <= 1
    text = capsys.readouterr().out
    assert "delta" in text and "alpha" in text


def _header(path) -> str:
    with open(path) as fh:
        return fh.readline()


def test_cli_modify_demo(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        """
        atoms = [(1.0, 0.05)]
        exptail = [(3.0, 0.5, 0.95)]
        pattern = av_edge
        pattern_params = {"M": 8.0}
        instances = 2
        seed = 11
        delta = 1.0
        """,
    )
    out = str(tmp_path / "demo.csv")
    assert main(["modify-demo", "--config", cfg, "--out", out]) == 0
    rows = read_csv(out)
    assert len(rows) == 2 and all(r["passed"] == 1 for r in rows)
    with open(out + ".reports.txt") as fh:
        text = fh.read()
    assert "rerouting wins" in text and "takes the pattern inside B2" in text
    assert _header(out) == "# fppkit schema=modify_demo v2\n"
    # the summary reports nu(N): the Chernoff level of B2's 2,304 edges (radius r2 N = 24)
    summary = ast.literal_eval(capsys.readouterr().out.splitlines()[0])
    spec = DistributionSpec(atoms=((1.0, 0.05),), exp_tails=((3.0, 0.5, 0.95),))
    assert summary["nu_N"] == nu_level(spec, L1Ball((0, 0), 24).edge_count())


LAWS = {
    "atoms12": "atoms = [(1.0, 0.5), (2.0, 0.5)]",
    "zero_atom": "atoms = [(0.0, 0.3), (1.0, 0.4), (2.0, 0.3)]",
}


@pytest.mark.parametrize(
    "law,experiment",
    [(law, e) for law in LAWS for e in ("deficiency", "large-edges", "gap", "shift")
     if (law, e) != ("zero_atom", "shift")],  # shift needs b < rho = 0
)
def test_cli_jobs_deterministic_merge(tmp_path, law, experiment):
    cfg = _write(
        tmp_path,
        LAWS[law] + """
        pattern = av_edge
        pattern_params = {"M": 2.0}
        M = 2.0
        n_list = [6, 8, 10]
        trials = 4
        seed = 5
        """,
    )
    seq, par = tmp_path / "seq.csv", tmp_path / "par.csv"
    assert main([experiment, "--config", cfg, "--out", str(seq), "--jobs", "1"]) == 0
    assert main([experiment, "--config", cfg, "--out", str(par), "--jobs", "3"]) == 0
    assert {r["n"] for r in read_csv(str(seq))} == {6, 8, 10}
    assert seq.read_bytes() == par.read_bytes()


# SHA-256 of each CSV at n_list = [8, 24], 4 trials, seed 5.  The shift
# digest covers both n; its n = 8 and n = 24 rows are those of one-n runs.
# At n = 24 the segment pad is n // 3 = 8, above its floor of 6, so the
# digests pin both terms of the rule.
GOLDEN = {
    ("atoms12", "deficiency"): "47aae837eeb7a820d726a49a3c2d4f048c1b340422eefb6a4f8decf7aadd0c4c",
    ("atoms12", "large-edges"): "0b84c5978fd67d6ebeec64b17a6a36132898bb1280a17e003807bf7882156766",
    ("atoms12", "gap"): "3cb76448943205a609531cd7d582983b9e5f6cde5ef6bb7110381b0a0f1b7eb0",
    ("atoms12", "shape"): "bc89801470dbe195fff5d7aca109c23adc549b313c8342b617777674b3557009",
    ("atoms12", "calibrate"): "698449463240f5f7363092fa9e9382c4e3e23a220ef797196e8eae6496efd1f1",
    ("atoms12", "shift"): "5547488cd4d31bb1af9516314396cc9ccd7b0e925714d1130e0592aea250f748",
    ("zero_atom", "deficiency"): "bdf0c7af77f4cbb81c996f7d952cbe57ae4c89580fad4227076f479d9ba89a19",
    ("zero_atom", "large-edges"): "37df65b63775c02c15e5fc6388ac6246af5d2bca983b9090f15cdfb0bd0984b0",
    ("zero_atom", "gap"): "f85bee6f44b618ed2986070e4c7a9513bfd81d3b6a4d04b6b80c245d61cb2d49",
    ("zero_atom", "shape"): "d0c0ff7fadf36d602d17aa24c1d8d3ceb21b08e90a1da66b4ad892a4c1870e91",
    ("zero_atom", "calibrate"): "5d5bd6d9d5bd199ad29c0007cc2a271181500b3abc8b1940a2103b2b5be3b802",
}


def test_cli_outputs_keep_their_golden_bytes(tmp_path):
    # the reproducibility contract: a pinned (config, seed) gives the same CSV bytes
    got = {}
    for law, experiment in GOLDEN:
        cfg = _write(
            tmp_path,
            LAWS[law] + """
            pattern = av_edge
            pattern_params = {"M": 2.0}
            M = 2.0
            n_list = [8, 24]
            trials = 4
            seed = 5
            """,
        )
        out = tmp_path / f"{law}-{experiment}.csv"
        assert main([experiment, "--config", cfg, "--out", str(out)]) == 0
        got[law, experiment] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == GOLDEN


# SHA-256 of each CSV at dimension 3, atoms {1, 2}, n_list = [8, 16], 4 trials, seed 5
GOLDEN_D3 = {
    "deficiency": "617a2dbb4ee1ea53da1fccb386b2bf4d075900cda7767dea9ea31a1fd96c3e2a",
    "large-edges": "b39218c49fac172dd50b948644bf59567b7ddae7c0edc6f8ebf9d994b1aa777a",
    "gap": "657dc0fd5213a4c60ccb9bbf2734ed261164db4442252c13084c767138a4d446",
}


def test_cli_d3_outputs_keep_their_golden_bytes(tmp_path):
    cfg = _write(
        tmp_path,
        LAWS["atoms12"] + """
        pattern = av_edge
        pattern_params = {"M": 2.0}
        M = 2.0
        dimension = 3
        n_list = [8, 16]
        trials = 4
        seed = 5
        """,
    )
    got = {}
    for experiment in GOLDEN_D3:
        out = tmp_path / f"d3-{experiment}.csv"
        assert main([experiment, "--config", cfg, "--out", str(out)]) == 0
        got[experiment] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == GOLDEN_D3


# the modify-demo config of the benchmark (perfbench/workloads.py) with 3 instances
MODIFY_DEMO = """
    atoms = [(1.0, 0.05)]
    exptail = [(3.0, 0.5, 0.95)]
    pattern = av_edge
    pattern_params = {"M": 8.0}
    cap = 256
    delta = 2.0660447436604943
    """


def test_cli_modify_demo_keeps_its_golden_bytes(tmp_path):
    cfg = _write(tmp_path, MODIFY_DEMO + "instances = 3\nN = 4\nradii = (2, 6, 10)\n")
    out = tmp_path / "demo.csv"
    assert main(["modify-demo", "--config", cfg, "--out", str(out), "--seed", "5"]) == 0
    digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in (out, tmp_path / "demo.csv.reports.txt")]
    assert digests == [
        "b11f45fbb9d7a596d138d6e8c28395ba5b00478d9fcb8e2ef597ec9f6f55a3a8",
        "b8b8ead7fd300521d1816962a8947b57975ca20d352902ccf7fade8b575e0640",
    ]


def test_cli_modify_demo_without_instances_names_its_gate_counts(tmp_path, capsys):
    # at N = 2, radii (2, 4, 6) every attempt fails a gate: no rows, so no CSV
    cfg = _write(tmp_path, MODIFY_DEMO + "instances = 2\nN = 2\nradii = (2, 4, 6)\n")
    out = tmp_path / "demo.csv"
    assert main(["modify-demo", "--config", cfg, "--out", str(out), "--seed", "5"]) == 1
    stdout, stderr = capsys.readouterr()
    summary = ast.literal_eval(stdout.splitlines()[0])
    assert summary["instances"] == 0 and summary["attempts"] == summary["gate_failures"] > 0
    assert stderr == (
        "fpp modify-demo: no instance passed the gates "
        f"(attempts={summary['attempts']}, gate_failures={summary['gate_failures']})\n"
    )
    assert not out.exists()


def test_cli_large_edges_and_typical_rate(tmp_path):
    cfg = _write(
        tmp_path,
        """
        atoms = [(1.0, 0.5), (2.0, 0.5)]
        M = 2.0
        n_list = [8]
        trials = 4
        seed = 2
        pattern = av_edge
        pattern_params = {"M": 2.0}
        delta = 0.25
        N_list = [2]
        radii = (2, 4, 8)
        boxes = 4
        c_mu = 1.0
        C_mu = 1.6
        """,
    )
    assert main(["large-edges", "--config", cfg, "--out", str(tmp_path / "le.csv")]) == 0
    assert main(["typical-rate", "--config", cfg, "--out", str(tmp_path / "tr.csv")]) == 0
    rows = read_csv(str(tmp_path / "tr.csv"))
    assert {"clause1", "clause2", "clause3", "typical"} <= set(rows[0])
    # typical-rate rows moved with nu(N); large-edges rows did not
    assert _header(tmp_path / "tr.csv") == "# fppkit schema=typical_rate v2\n"
    assert _header(tmp_path / "le.csv") == "# fppkit schema=large_edges v1\n"


def test_zero_atom_one_edge_rows_enumerate_without_the_extremal_walk(tmp_path, monkeypatch):
    # zero-weight cycles leave no path count, so n_geodesics and truncated
    # come from the capped enumeration alone; min_count stays the exact search's
    def refuse(*args, **kwargs):
        raise AssertionError("a one-edge row ran the extremal-length walk")

    monkeypatch.setattr(GeodesicDag, "extremes", refuse)
    cfg = _write(
        tmp_path,
        """
        atoms = [(0.0, 0.3), (1.0, 0.4), (2.0, 0.3)]
        pattern = av_edge
        pattern_params = {"M": 2.0}
        M = 2.0
        n_list = [28]
        trials = 6
        seed = 5
        cap = 16
        """,
    )
    for cmd in ("deficiency", "large-edges"):
        out = str(tmp_path / f"{cmd}.csv")
        assert main([cmd, "--config", cfg, "--out", out]) == 0
        rows = read_csv(out)
        assert any(r["truncated"] for r in rows)
        assert all(r["n_geodesics"] == 16 for r in rows if r["truncated"])


def test_cli_typical_rate_bounded_requires_mu_rate(tmp_path):
    cfg = _write(
        tmp_path,
        """
        atoms = [(1.0, 0.5), (2.0, 0.5)]
        regime = bounded
        pattern = atom_square
        delta = 0.3
        alpha = 0.05
        N_list = [2]
        radii = (2, 3, 4, 6)
        boxes = 1
        """,
    )
    with pytest.raises(SystemExit, match="mu_rate"):
        main(["typical-rate", "--config", cfg, "--out", str(tmp_path / "tr.csv")])
    assert not (tmp_path / "tr.csv").exists()


def test_cli_jobs_rejected_where_not_honoured(tmp_path, capsys):
    cfg = _write(tmp_path, "atoms = [(1.0, 0.5), (2.0, 0.5)]\nn_list = [10]\ntrials = 2\n")
    with pytest.raises(SystemExit) as exc:
        main(["calibrate", "--config", cfg, "--out", str(tmp_path / "c.csv"), "--jobs", "2"])
    assert exc.value.code != 0
    assert "calibrate" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize(
    "experiment, flags, config_trials, setting",
    [
        ("deficiency", ["--trials", "0"], 2, "--trials"),
        ("calibrate", ["--trials", "0"], 2, "--trials"),
        ("deficiency", ["--jobs", "0"], 2, "--jobs"),
        ("deficiency", ["--jobs", "-4"], 2, "--jobs"),
        ("deficiency", [], 0, "config key 'trials'"),
    ],
    ids=["trials", "calibrate-trials", "jobs-zero", "jobs-negative", "config-trials"],
)
def test_cli_counts_below_one_are_usage_errors(tmp_path, capsys, experiment, flags, config_trials, setting):
    cfg = _write(
        tmp_path,
        "atoms = [(1.0, 0.5), (2.0, 0.5)]\npattern = av_edge\npattern_params = {\"M\": 2.0}\n"
        f"n_list = [8]\ntrials = {config_trials}\n",
    )
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main([experiment, "--config", cfg, "--out", str(out), *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert setting in err and "at least 1" in err
    assert not out.exists()


def test_cli_modify_demo_rejects_non_numeric_delta(tmp_path):
    cfg = _write(
        tmp_path,
        """
        atoms = [(1.0, 0.05)]
        exptail = [(3.0, 0.5, 0.95)]
        pattern = av_edge
        pattern_params = {"M": 8.0}
        instances = 1
        delta = np.float64(2.066)
        """,
    )
    with pytest.raises(SystemExit, match="config key 'delta'"):
        main(["modify-demo", "--config", cfg, "--out", str(tmp_path / "demo.csv")])
