"""Catalog completeness, report schema stability, CLI commands and exit codes."""

import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from gegenfun import catalog
from gegenfun.cli import main

SPEC_IDS = [
    "gf1.a", "gf1.b", "gf1.rewrite.a", "gf1.rewrite.b", "miller.g1", "miller.g2",
    "alt.1", "alt.2", "octa.c14", "tetra.c16.hyp", "tetra.c16.circ", "lemma.key",
    "gf1x.a", "gf1x.b", "gf1x.rewrite.a", "gf1x.rewrite.b", "millerx.plus",
    "millerx.minus", "gf2.a", "gf2.b", "gf2x.a", "gf2x.b", "gf2.rewrite.a",
    "gf2.rewrite.b", "subst.table",
]


def test_catalog_contains_stable_ids():
    ids = catalog.identity_ids()
    for i in SPEC_IDS:
        assert i in ids, i
    assert "elliptic.quarter" in ids
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("order", (0, 1, 16))
def test_series_rows_return_both_sides_at_the_order(order):
    # the runner compares the window 0..order and raises on a shorter side
    rows = 0
    for entry in catalog.CATALOG:
        if entry.axis is None:
            continue
        i = entry.fields.index(entry.axis)
        results = [entry.check(*case[:i], v, *case[i + 1 :], order) for case in entry.cases for v in case[i]]
        if not isinstance(results[0], tuple):
            continue
        rows += 1
        for lhs, rhs in results:
            assert (lhs.order, rhs.order) == (order, order), entry.id
    assert rows == len(SPEC_IDS) - 1  # every listed id but subst.table


def test_run_identity_basic():
    r = catalog.run_identity("alt.1", order=12, tol=1e-8)
    assert r.overall_pass
    assert all(s.max_mixed_deviation <= 1e-8 for s in r.samples)
    with pytest.raises(KeyError):
        catalog.run_identity("bogus.id")


def test_report_json_is_stable_modulo_runtime():
    a = catalog.run_identity("alt.2", order=10, tol=1e-8)
    b = catalog.run_identity("alt.2", order=10, tol=1e-8)
    ja, jb = json.loads(catalog.report_to_json(a)), json.loads(catalog.report_to_json(b))
    ja.pop("runtime_ms"), jb.pop("runtime_ms")
    assert ja == jb


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "octa.c14" in out
    assert "elliptic.quarter" in out
    assert len(out.strip().splitlines()) == len(catalog.CATALOG)


def test_cli_verify_single(capsys):
    code = main(["verify", "octa.c14", "--order", "16"])
    out = capsys.readouterr().out
    assert code == 0
    record = json.loads(out.strip())
    assert record["identity"] == "octa.c14"
    assert record["overall_pass"] is True
    assert record["order"] == 16


def test_cli_verify_unknown_id(capsys):
    assert main(["verify", "bogus.id"]) == 2
    assert "unknown identity" in capsys.readouterr().err


def test_cli_verify_failure_exit_code(capsys):
    # an impossible tolerance must produce exit code 1
    assert main(["verify", "alt.1", "--tol", "1e-30"]) == 1
    record = json.loads(capsys.readouterr().out.strip())
    assert record["overall_pass"] is False


@pytest.mark.parametrize(
    "identity,x",
    [("alt.1", "1000"), ("alt.2", "1000"), ("octa.c14", "1000"), ("gf1.a", "1000"),
     ("gf2.rewrite.b", "1000"), ("tetra.c16.hyp", "1e6"), ("tetra.c16.hyp", "-1e6")],
)
def test_cli_verify_large_x(identity, x, capsys):
    # the identities hold for every large |x|, where later series coefficients
    # dwarf the leading ones by many decades: every sample is checked and passes
    code = main(["verify", identity, "--x=" + x, "--order", "16"])
    record = json.loads(capsys.readouterr().out.strip())
    assert code == 0
    assert all(s["pass"] for s in record["samples"]), record["samples"]


def test_numerical_errors_surface_as_failed_samples(capsys):
    # x = 0.5 is outside the hyperbolic-substitution domain: the sample must
    # fail with a reason string instead of raising, and the exit code is 1
    code = main(["verify", "octa.c14", "--x", "0.5"])
    record = json.loads(capsys.readouterr().out.strip())
    assert code == 1
    assert record["overall_pass"] is False
    assert any("DomainMismatch" in s.get("note", "") for s in record["samples"])


@pytest.mark.parametrize(
    "identity, override",
    [("gf1.b", "--x=1e300"), ("gf1x.a", "--u=1e300"), ("octa.c14", "--x=1e300"), ("subst.table", "--x=-1e300")],
)
def test_overflowing_sample_fails_and_the_run_goes_on(identity, override, capsys):
    # a finite override whose arithmetic overflows fails its samples with a
    # note; the run reports every later id and exits 1
    code = main(["verify", identity, "elliptic.legendre", override])
    captured = capsys.readouterr()
    records = [json.loads(line) for line in captured.out.splitlines()]
    assert code == 1
    assert captured.err == ""
    assert [r["identity"] for r in records] == [identity, "elliptic.legendre"]
    noted = [s for s in records[0]["samples"] if s.get("note")]
    assert noted
    assert all(s["pass"] is False and s["max_mixed_deviation"] == math.inf for s in noted)
    assert records[1]["overall_pass"] is True


def test_cli_verify_csv_and_overrides(capsys):
    code = main(["verify", "gf1.a", "--format", "csv", "--x", "1.5", "--order", "10"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("identity,point,order,")
    assert all("x=1.5" in line for line in lines[1:])


def test_cli_repeated_calls_share_no_state(capsys):
    assert main(["verify", "gf1.a", "--x", "1.5"]) == 0
    capsys.readouterr()
    assert main(["verify", "gf1.a"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert len(record["samples"]) == 7  # the full default grid, not the earlier override
    with pytest.raises(SystemExit) as exc:
        main(["verify", "gf1.a", "--order", "sixteen"])
    assert exc.value.code == 2
    assert main(["verify", "bogus.id"]) == 2
    assert main(["verify", "gf1.a"]) == 0


def test_cli_override_applies_only_on_the_identity_axis(capsys):
    # gf1x.a sweeps u: the override replaces the sweep of each of its 2 cases
    main(["verify", "gf1x.a", "--u", "0.5"])
    record = json.loads(capsys.readouterr().out)
    assert [s["point"]["u"] for s in record["samples"]] == ["0.5", "0.5"]
    assert record["params"]["u"] == "0.5"
    # lemma.key sweeps u, so an x override is neither applied nor recorded
    main(["verify", "lemma.key", "--x", "3"])
    record = json.loads(capsys.readouterr().out)
    assert [s["point"]["x"] for s in record["samples"]] == ["1.5", "1.5", "2", "0.6"]
    assert "x" not in record["params"]
    # gf1.a sweeps x, so the override is recorded
    main(["verify", "gf1.a", "--x", "1.5"])
    record = json.loads(capsys.readouterr().out)
    assert record["params"]["x"] == "1.5"
    # scalar rows have no axis: an override is neither applied nor recorded
    for identity, flag in (("elliptic.k2f1", ["--x", "3"]), ("poisson.kernel", ["--u", "0.5"])):
        main(["verify", identity])
        default = json.loads(capsys.readouterr().out)
        main(["verify", identity, *flag])
        record = json.loads(capsys.readouterr().out)
        assert record["samples"] == default["samples"]
        assert record["params"] == {"tol": "1e-08"}


def test_cli_verify_multiple_ids_catalog_order(capsys):
    code = main(["verify", "alt.2", "alt.1", "--order", "10"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    got = [json.loads(line)["identity"] for line in out]
    assert got == ["alt.1", "alt.2"]  # catalog order, not argument order


def test_cli_config_file(tmp_path, capsys):
    cfg = tmp_path / "gegenfun.cfg"
    cfg.write_text("# defaults\norder = 10\ntol = 1e-6\nformat = jsonl\n")
    code = main(["verify", "alt.1", "--config", str(cfg)])
    record = json.loads(capsys.readouterr().out.strip())
    assert code == 0
    assert record["order"] == 10
    assert record["tol"] == 1e-6


def test_cli_config_unknown_key_is_a_usage_error(tmp_path, capsys):
    # a misspelt key must not silently fall back to the default order
    cfg = tmp_path / "gegenfun.cfg"
    cfg.write_text("ordr = 32\n")
    assert main(["verify", "alt.1", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: unknown config key 'ordr'\n"
    assert captured.out == ""
    cfg.write_text("order = 32\n")
    assert main(["verify", "alt.1", "--config", str(cfg)]) == 0


@pytest.mark.parametrize(
    "argv, config",
    [
        (["verify", "alt.1", "--order", "-1"], None),
        (["verify", "poisson.operator", "--order", "-1"], None),
        (["verify", "alt.1", "--tol", "nan"], None),
        (["verify", "alt.1", "--tol", "inf"], None),
        (["verify", "alt.1", "--tol=-1e-8"], None),
        (["verify", "alt.1"], "order = abc\n"),
        (["verify", "alt.1"], "tol = x\n"),
        (["verify", "alt.1"], "order = -3\n"),
        (["verify", "gf1.a", "--x", "nan"], None),
        (["verify", "gf1.a", "--x", "inf"], None),
        (["verify", "gf1x.a", "--u", "nan"], None),
    ],
)
def test_cli_malformed_order_or_tol_is_a_usage_error(tmp_path, capsys, argv, config):
    if config is not None:
        cfg = tmp_path / "gegenfun.cfg"
        cfg.write_text(config)
        argv = [*argv, "--config", str(cfg)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""
    assert main(["verify", "alt.1", "--order", "10"]) == 0


def test_cli_eval_elliptic(capsys):
    assert main(["eval", "K", "0"]) == 0
    assert capsys.readouterr().out.strip() == "1.5707963267949"
    assert main(["eval", "E", "0.3"]) == 0
    val = float(capsys.readouterr().out)
    assert abs(val - 1.4453630644126654) <= 1e-12


def test_cli_eval_gegenbauer(capsys):
    from gegenfun.gegenbauer import gegenbauer_recurrence

    assert main(["eval", "gegenbauer", "--lambda", "0.25", "--n", "3", "--x", "2"]) == 0
    got = float(capsys.readouterr().out)
    expected = complex(gegenbauer_recurrence(0.25, 3, 2.0)[3]).real
    assert abs(got - expected) <= 1e-12 * abs(expected)


def test_cli_eval_legendre_octahedral(capsys):
    from gegenfun.legendre import octahedral_p

    code = main(["eval", "legendre", "--nu", "-0.1666666667", "--mu", "0.25", "--xi", "0.8"])
    assert code == 0
    got = float(capsys.readouterr().out)
    assert abs(got - octahedral_p(+1, 0.8)) <= 1e-12


@pytest.mark.parametrize(
    "nu,expected",
    [(1.0, 1.5330047767743853), (0.5, 1.1323490774891338)],  # mpmath legenp(nu, 1/2, cosh 0.8, type=3)
)
def test_cli_eval_legendre_secondary_tag(nu, expected, capsys):
    # QuasiCyclic (nu = 1) and Reducible (nu = 1/2) are primary; the closed
    # form comes from the QuasiDihedral tag that also matches
    assert main(["eval", "legendre", "--nu", str(nu), "--mu", "0.5", "--xi", "0.8"]) == 0
    assert abs(float(capsys.readouterr().out) - expected) <= 1e-13


@pytest.mark.parametrize(
    "nu,mu,z,expected",
    [(0.5, 0.5, 1.5, 1.1318889424987415), (0.5, 1.5, 1.5, -0.6749281649086764),
     (1.5, 0.5, 0.4, -0.5667338495122882)],  # mpmath legenp, type 3 for z > 1, else 2
)
def test_cli_eval_legendre_reducible_excluded_mu(nu, mu, z, expected, capsys):
    # the reducible closed form excludes these mu; the hypergeometric oracle does not
    assert main(["eval", "legendre", "--nu", str(nu), "--mu", str(mu), "--z", str(z)]) == 0
    assert abs(float(capsys.readouterr().out) - expected) <= 1e-13 * max(1.0, abs(expected))


@pytest.mark.parametrize("flag", ["--xi=0.8", "--theta=1.0"])
@pytest.mark.parametrize(
    "nu,mu",
    [(-1.0 / 6.0, 0.75), (-1.0 / 6.0, 1.25), (-1.0 / 6.0, -0.75),
     (-0.25, 2.0 / 3.0), (-0.25, 4.0 / 3.0), (-0.25, -2.0 / 3.0)],
)
def test_cli_eval_legendre_shifted_pair_is_refused(nu, mu, flag, capsys):
    # the octahedral and tetrahedral closed forms serve mu = +-1/4 and +-1/3
    # only; an integer-shifted order must not get the base pair's value
    assert main(["eval", "legendre", f"--nu={nu!r}", f"--mu={mu!r}", flag]) == 2
    assert "no closed form implemented" in capsys.readouterr().err


@pytest.mark.parametrize(
    "nu,mu,z,expected",
    [(0.2, 1.2, 1.5, -0.34520835905787598), (0.3, 1.3, 1.5, -0.49223845046340304),
     (0.4, 2.4, 1.5, 2.2777627849121825), (0.2, 1.2, 0.4, -0.43818725292358421)],  # mpmath legenp
)
def test_cli_eval_legendre_reflected_reducible(nu, mu, z, expected, capsys):
    # nu + mu is not a whole number, so the degree is N = mu - nu - 1
    assert main(["eval", "legendre", "--nu", str(nu), "--mu", str(mu), "--z", str(z)]) == 0
    assert abs(float(capsys.readouterr().out) - expected) <= 1e-13 * abs(expected)


def test_cli_eval_kernel(capsys):
    from gegenfun.poisson import KernelArgs, poisson_kernel

    code = main(
        ["eval", "kernel", "--lambda", "0.25", "--theta", "1.0", "--phi", "1.7", "--t", "0.15"]
    )
    assert code == 0
    got = float(capsys.readouterr().out)
    expected = poisson_kernel(KernelArgs(0.25, 1.0, 1.7, 0.15), "tilde")
    assert abs(got - expected) <= 1e-12


def test_cli_eval_errors(capsys):
    assert main(["eval", "nosuchfn", "1"]) == 2
    capsys.readouterr()
    assert main(["eval", "K", "1.5"]) == 2  # OutOfRange surfaces as usage error
    capsys.readouterr()


def test_cli_classify(capsys):
    assert main(["classify", "--lambda", "0.25", "--gamma", "-0.0833333333"]) == 0
    assert capsys.readouterr().out.strip() == "algebraic (clause 1)"
    assert main(["classify", "--nu", "-0.25", "--mu", "0.3333333333"]) == 0
    assert capsys.readouterr().out.strip() == "TetrahedralA"
    assert main(["classify", "--nu", "0.2", "--mu", "0.1"]) == 0
    assert capsys.readouterr().out.strip() == "Generic"
    assert main(["classify", "--lambda", "0.5", "--gamma", "0.3"]) == 0
    assert capsys.readouterr().out.strip() == "not algebraic"
    assert main(["classify", "--lambda", "0.25", "--gamma", "0.5833333333333334"]) == 0
    assert capsys.readouterr().out.strip() == "algebraic (clause 1)"
    assert main(["classify"]) == 2


def test_cli_closed_stdout_exits_1_without_traceback():
    # The read end is closed before the child starts, so its first write
    # fails; `verify all` would otherwise fit in a pipe buffer and never see it.
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "gegenfun.cli", "verify", "all"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert b"Traceback" not in proc.stderr, proc.stderr.decode()
    assert proc.returncode == 1


# sha256 of `verify all` output with 80-bit long double, (JSONL with every
# runtime_ms set to 0, CSV) per order: a kernel change that moves one bit of
# one reported deviation changes them.
VERIFY_ALL_SHA256 = {
    0: (
        "1edcdb6a930b1e74a7153883ba2cdd1a2761bbd8b6ad5b7e08eb68b9c6efff35",
        "0603683c71963f4bb045ad4e15c7e0562068cf2d74b30d249feb66cab971d0e6",
    ),
    1: (
        "2c1315d66ced3d48cc4e8598b5536c60a79cd143fe184e7b23ee3fec72d403be",
        "457e3324d460bd5ac16e1ff959398a7f8a950a05805b3cf304020c6a51acf110",
    ),
    2: (
        "38975ecca7e5025553499b51c6f8695cff47f6d8c14ef35d2b23b66fe1526857",
        "d65617ec58b4cde58e6fdfe41f9eab172563b85b2c8e17a0f9bbca81f356cb0a",
    ),
    8: (
        "57e6ea51d24ca287ca2d72fcd4bbcc085170290ed2a0c19fe2958b8dfe821bc0",
        "10324d7ee104d73d8ab200bb62fa866e0387d701402c088ab4f0518ee4742a57",
    ),
    16: (
        "f6ccfb61df1cd962587c93aad9856464e45920c97f1bfa1342ae79916f51949e",
        "fe930c594a753aadeac3324ca4dc13a8be0516cb894dde7bd9c974b331dc18a5",
    ),
    32: (
        "6bd641be1517ab7f94a8be2d659256f58ac71e2d0eef2affce8bf45ae168b40d",
        "98cc247ea67e4b4c7944800776964ca7940e1fea2aa9163f821d65ceac7d69bf",
    ),
    64: (
        "02eabae8d06cd0b4002d5ef508bb3f582a782f3330bebc6ce577211e6896d57c",
        "cd6022c0c6f4256fa0a7c7837483e4e4c7ec240e8a38cd0ffffd1dabe561458c",
    ),
}


@pytest.mark.skipif(
    np.finfo(np.longdouble).nmant != 63, reason="digests of 80-bit long double output"
)
@pytest.mark.parametrize("order", sorted(VERIFY_ALL_SHA256))
def test_verify_all_output_is_pinned(order, capsys):
    digests = []
    for fmt in ("jsonl", "csv"):
        main(["verify", "all", "--order", str(order), "--format", fmt])
        out = capsys.readouterr().out
        if fmt == "jsonl":
            out = re.sub(r'"runtime_ms": \d+', '"runtime_ms": 0', out)
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(digests) == VERIFY_ALL_SHA256[order]


# sha256 of the identity, point and order columns of `verify all --order 16
# --format csv`: these hold no computed deviation, so the digest is the same
# on every platform. A reordered point field or a lost case changes it.
SAMPLE_GRID_SHA256 = "44d9ffc9b4ea959fc2fe3569480af2f0db73fce8eb24acb4ea5a045a862f7a56"


def test_verify_all_sample_grid_is_pinned(capsys):
    main(["verify", "all", "--order", "16", "--format", "csv"])
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0][:3] == ["identity", "point", "order"]
    assert len(rows) - 1 == 174
    text = "".join(",".join(row[:3]) + "\n" for row in rows[1:])
    assert hashlib.sha256(text.encode()).hexdigest() == SAMPLE_GRID_SHA256
