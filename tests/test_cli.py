"""End-to-end command-line behavior: exit codes, artifacts, determinism."""
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gamecert
from gamecert import core, gamesim, optimize, patterns
from gamecert.cli import Config, ConfigError, main
from gamecert.core import BoxRegion
from gamecert.families import (
    RcdSpec, RcoSpec, RectangleSet, RectEntry, covering_strategy_for_rcd,
    covering_strategy_for_rco, generate_rcd, generate_rco,
)


def write_cfg(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


MAXIMIZE_CFG = """
command = maximize
family.kind = rco
family.u = 17
family.v = 24
family.m = 1
family.t = 5
"""


def test_generate_corner_digit_counts(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "gen.cfg", """
        command = generate
        family.kind = rcd
        family.u = 7
        family.v = 4
        generate.depth = 2
    """)
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "rectangles.csv").read_text().splitlines()
    data = [r for r in rows if not r.startswith("#") and r and "," in r][1:]
    assert len(data) == 18 + 324
    assert sum(1 for r in data if r.startswith("1,")) == 18


def test_generate_pbm(tmp_path):
    cfg = write_cfg(tmp_path, "gen.cfg", """
        command = generate
        family.kind = rco
        family.u = 4
        family.v = 5
        family.m = 2
        generate.depth = 2
        generate.format = csv,pbm
        generate.width = 32
        generate.height = 32
    """)
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 0
    pbm = (tmp_path / "raster.pbm").read_text()
    assert pbm.startswith("P1\n32 32\n")


def test_certify_ineligible_ratio_is_clean_exit_2(tmp_path, capsys):
    # a ratio of 1/5 is outside (0, 1/5) for certify, maximize and intersect
    configs = {
        "certify": """
            command = certify
            family.kind = raw
            family.betas = 0.3,0.25
            family.alpha = 0.01
            game.c = 0.5
        """,
        "maximize": """
            command = maximize
            family.kind = rco
            family.u = 5
            family.v = 24
            family.m = 1
            family.t = 5
        """,
        "intersect": """
            command = intersect
            member.1.kind = rco
            member.1.u = 5
            member.1.v = 24
            member.1.m = 1
            member.1.t = 5
        """,
    }
    for name, text in configs.items():
        out = tmp_path / name
        cfg = write_cfg(tmp_path, f"{name}.cfg", text)
        assert main(["--config", cfg, "--out", str(out)]) == 2, name
        assert "theorem-ineligible" in capsys.readouterr().out, name
        assert not out.exists(), name


def test_certify_raw_feasible(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "raw.cfg", """
        command = certify
        family.kind = raw
        family.betas = 1/10,1/12
        family.alpha = 1e-12
        game.c = 0.9
    """)
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 0
    text = (tmp_path / "certificate.txt").read_text()
    assert "kind = dimension" in text and "feasible = true" in text
    assert "betas = " in text    # raw runs echo the ratios for re-validation


def test_maximize_reaches_232_and_revalidates(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "max.cfg", MAXIMIZE_CFG)
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 0
    search = (tmp_path / "search.txt").read_text()
    assert "pattern_count = 232" in search
    recheck = write_cfg(tmp_path, "recheck.cfg", f"""
        command = certify
        certify.certificate = {tmp_path / 'certificate.txt'}
    """)
    assert main(["--config", recheck]) == 0
    assert "re-validates" in capsys.readouterr().out


def test_maximize_dimension_objective_pins_the_count_and_revalidates(tmp_path, capsys):
    # with the count pinned to 1 the bound beats the default run's, which
    # certifies 232 points
    for objective, count, dim in (("pattern-count", 232, "1.9999999028691064"),
                                  ("dimension", 1, "1.9999999491818308")):
        cfg = write_cfg(tmp_path, f"{objective}.cfg",
                        MAXIMIZE_CFG + f"maximize.objective = {objective}\n")
        out = tmp_path / objective
        assert main(["--config", cfg, "--out", str(out)]) == 0
        search = (out / "search.txt").read_text().splitlines()
        assert f"pattern_count = {count}" in search and f"dim_bound = {dim}" in search
        recheck = write_cfg(tmp_path, "recheck.cfg",
                            f"command = certify\ncertify.certificate = {out / 'certificate.txt'}\n")
        assert main(["--config", recheck]) == 0
        assert "certificate re-validates: kind=pattern" in capsys.readouterr().out


def test_tampered_certificate_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "max.cfg", MAXIMIZE_CFG)
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 0
    cert = tmp_path / "certificate.txt"
    text = cert.read_text()
    line = next(l for l in text.splitlines() if l.startswith("dim_lower_bound "))
    cert.write_text(text.replace(line, line[:-1] + ("1" if line[-1] != "1" else "2")))
    recheck = write_cfg(tmp_path, "recheck.cfg", f"""
        command = certify
        certify.certificate = {cert}
    """)
    assert main(["--config", recheck]) == 2
    assert "does not re-validate" in capsys.readouterr().out


def test_certificate_missing_its_kind_fields_rejected(tmp_path, capsys):
    # a pattern certificate stripped of its pattern_count, or one of no
    # known kind, is a clean "no", not a traceback
    cfg = write_cfg(tmp_path, "raw.cfg", """
        command = certify
        certify.kind = pattern
        family.kind = raw
        family.betas = 1/10,1/12
        family.alpha = 1e-13
        game.c = 0.9
        game.pattern_count = 3
    """)
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 0
    cert = tmp_path / "certificate.txt"
    text = cert.read_text()
    recheck = write_cfg(tmp_path, "recheck.cfg", f"""
        command = certify
        certify.certificate = {cert}
    """)
    assert main(["--config", recheck]) == 0
    capsys.readouterr()
    for edited in (text.replace("pattern_count = 3\n", ""),
                   text.replace("kind = pattern", "kind = triangle")):
        cert.write_text(edited)
        assert main(["--config", recheck]) == 2
        assert "does not re-validate" in capsys.readouterr().out


@pytest.mark.parametrize("rho2", [-2.0, float("nan")])
def test_certificate_edited_to_a_bad_radius_does_not_revalidate(tmp_path, capsys, rho2):
    # the edit restates scale_coefficient = rho2 (1 - beta_max) to match, so
    # only a check of rho2 itself can refuse it
    cfg = write_cfg(tmp_path, "raw.cfg", """
        command = certify
        certify.kind = pattern
        family.kind = raw
        family.betas = 1/10,1/12
        family.alpha = 1e-13
        game.c = 0.9
        game.pattern_count = 3
    """)
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 0
    cert = tmp_path / "certificate.txt"
    text = cert.read_text()
    coeff = "scale_coefficient = %.17g\n"
    assert "rho2 = 1\n" in text and coeff % 0.9 in text
    cert.write_text(text.replace("rho2 = 1\n", "rho2 = %.17g\n" % rho2)
                    .replace(coeff % 0.9, coeff % (rho2 * (1.0 - 0.1))))
    recheck = write_cfg(tmp_path, "recheck.cfg",
                        f"command = certify\ncertify.certificate = {cert}\n")
    capsys.readouterr()
    assert main(["--config", recheck]) == 2
    out, err = capsys.readouterr()
    assert "does not re-validate: rho2 must be positive and finite" in out
    assert "Traceback" not in out + err


def _recheck(tmp_path, capsys, cert):
    """Exit code and stdout of re-validating the certificate file `cert`."""
    recheck = write_cfg(tmp_path, "recheck.cfg",
                        f"command = certify\ncertify.certificate = {cert}\n")
    capsys.readouterr()
    code = main(["--config", recheck])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("edit, named", [
    (lambda text: text.replace("\nrho2 = ", "\nt = 123.5\nrho2 = "), "t = 123.5"),
    (lambda text: text + "zzz.note = anything\n", "zzz.note = anything"),
], ids=["stated-t", "appended-line"])
def test_certificate_with_a_line_nothing_checks_does_not_revalidate(tmp_path, capsys, edit,
                                                                   named):
    # re-validation keeps of the stated lines only those it recomputes and
    # the family echoes, so any other line makes the texts differ; the
    # message names the first line that differs, here the stated one
    cfg = write_cfg(tmp_path, "max.cfg", MAXIMIZE_CFG.replace("17", "12").replace("24", "15"))
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 0
    cert = tmp_path / "certificate.txt"
    text = cert.read_text()
    assert "family.u = 12\n" in text and "family.v = 15\n" in text
    assert _recheck(tmp_path, capsys, cert)[0] == 0
    cert.write_text(edit(text))
    code, out = _recheck(tmp_path, capsys, cert)
    assert code == 2 and "does not re-validate: recomputation differs" in out
    assert f"  stated:     {named}\n" in out


def test_intersection_certificate_with_a_stray_member_line_does_not_revalidate(tmp_path, capsys):
    # member.9 is past member_count = 2, so no member echoes it
    cfg = write_cfg(tmp_path, "int.cfg", """
        command = intersect
        member.1.kind = rcd
        member.1.u = 68719476736
        member.1.v = 1099511627776
        member.2.kind = rco
        member.2.u = 68719476736
        member.2.v = 1099511627776
        member.2.m = 1
        member.2.t = 1
    """)
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 0
    cert = tmp_path / "certificate.txt"
    text = cert.read_text()
    assert "kind = intersection" in text and "member_count = 2\n" in text
    assert _recheck(tmp_path, capsys, cert)[0] == 0
    stray = "member.9.alpha_log = -40\n"
    cert.write_text(text.replace("member_count = 2\n", "member_count = 2\n" + stray))
    code, out = _recheck(tmp_path, capsys, cert)
    assert code == 2 and f"  stated:     {stray}" in out


def test_every_search_dump_certificate_revalidates(tmp_path, capsys):
    # the small search dump's certificates: each recomputes to its own text,
    # and only the infeasible ones (below smallest-u) say so
    here = Path(__file__).resolve().parent
    subprocess.run([sys.executable, str(here.parent / "scripts" / "search_dump.py"),
                    str(tmp_path / "dump"), "--small"], check=True)
    certs = sorted((tmp_path / "dump").glob("*certificate.txt"))
    assert len(certs) == 7
    for cert in certs:
        code, out = _recheck(tmp_path, capsys, cert)
        if "feasible = true\n" in cert.read_text():
            assert code == 0 and out.startswith("certificate re-validates"), cert.name
        else:
            assert code == 2 and out.startswith("certificate re-validates but records an "
                                                "infeasible run"), cert.name


def test_byte_identical_reruns(tmp_path):
    cfg = write_cfg(tmp_path, "max.cfg", MAXIMIZE_CFG)
    assert main(["--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["--config", cfg, "--out", str(tmp_path / "b")]) == 0
    for name in ("certificate.txt", "search.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_intersect_two_members(tmp_path, capsys):
    # both certificate kinds an intersect run writes must re-validate
    for want_patterns, kind in (("false", "intersection"), ("true", "pattern")):
        out = tmp_path / want_patterns
        cfg = write_cfg(tmp_path, "int.cfg", f"""
            command = intersect
            intersect.want_patterns = {want_patterns}
            member.1.kind = rcd
            member.1.u = 68719476736
            member.1.v = 1099511627776
            member.2.kind = rco
            member.2.u = 68719476736
            member.2.v = 1099511627776
            member.2.m = 1
            member.2.t = 1
        """)
        assert main(["--config", cfg, "--out", str(out)]) == 0
        text = (out / "certificate.txt").read_text()
        assert f"kind = {kind}" in text and "member_count = 2" in text
        recheck = write_cfg(tmp_path, "recheck.cfg", f"""
            command = certify
            certify.certificate = {out / "certificate.txt"}
        """)
        assert main(["--config", recheck, "--out", str(out / "re")]) == 0


def test_intersect_mismatched_ratios_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "int.cfg", """
        command = intersect
        member.1.kind = rcd
        member.1.u = 8
        member.1.v = 9
        member.2.kind = rco
        member.2.u = 7
        member.2.v = 9
    """)
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 1
    assert "member" in capsys.readouterr().err


def test_intersect_members_with_float_equal_ratios_is_config_error(tmp_path, capsys):
    # 1/2^60 and 1/(2^60 + 1) are one float: only the denominators differ
    cfg = write_cfg(tmp_path, "int.cfg", f"""
        command = intersect
        member.1.kind = rcd
        member.1.u = {2 ** 60}
        member.1.v = {2 ** 60}
        member.2.kind = rcd
        member.2.u = {2 ** 60 + 1}
        member.2.v = {2 ** 60}
    """)
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "member" in capsys.readouterr().err
    assert not (tmp_path / "out" / "certificate.txt").exists()


def test_certify_corner_family_at_a_large_depth_offset(tmp_path, capsys):
    # 7^400.5 is past the float range: the cover count comes from integer
    # roots, and the rate is far above 1, so nothing certifies
    cfg = write_cfg(tmp_path, "cert.cfg", """
        command = certify
        family.kind = rcd
        family.u = 7
        family.v = 6
        game.c = 0.99
        game.t = 400.5
    """)
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "not certified" in capsys.readouterr().out
    assert "feasible = false" in (tmp_path / "out" / "certificate.txt").read_text()


@pytest.mark.parametrize("family", [
    "family.kind = rcd\nfamily.u = 7\nfamily.v = 6\ngame.t = 400.5\ngame.c = 0.5\n",
    "family.kind = rco\nfamily.u = 17\nfamily.v = 24\nfamily.m = 1\nfamily.t = 5\n"
    "game.c = 0.001\n",
], ids=["rcd-large-t", "rco-small-c"])
def test_certify_writes_a_rate_past_the_float_range(tmp_path, capsys, family):
    # the rate's log is past 709.78, so its value is written as inf
    cfg = write_cfg(tmp_path, "cert.cfg", "command = certify\n" + family)
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 2
    cert = tmp_path / "out" / "certificate.txt"
    assert "alpha = inf\n" in cert.read_text() and "feasible = false\n" in cert.read_text()
    recheck = write_cfg(tmp_path, "recheck.cfg",
                        f"command = certify\ncertify.certificate = {cert}\n")
    assert main(["--config", recheck, "--out", str(tmp_path / "re")]) == 2
    out, err = capsys.readouterr()
    assert "records an infeasible run" in out and "Traceback" not in out + err


def test_simulate_transcript(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "sim.cfg", """
        command = simulate
        family.kind = rco
        family.u = 4
        family.v = 5
        family.m = 2
        family.t = 1
        game.c = 0.5
        simulate.moves = 3
        simulate.target = 7/8, 9/10
    """)
    assert main(["--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["--config", cfg, "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "transcript.txt").read_bytes()
    assert a == (tmp_path / "b" / "transcript.txt").read_bytes()
    assert b"move m=3" in a


def test_simulate_moves_are_bounded_by_the_strategy_depth(tmp_path, capsys):
    body = SIMULATE + RCO_GAME + "generate.depth = 2\n"
    cfg = write_cfg(tmp_path, "far.cfg", body + "simulate.moves = 3000\n")
    start = time.perf_counter()
    assert main(["--config", cfg, "--out", str(tmp_path / "far")]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "simulate.moves: must not exceed the strategy's depth (generate.depth = 2)" in err
    assert not (tmp_path / "far").exists()
    cfg = write_cfg(tmp_path, "deep.cfg", body + "simulate.moves = 2\n")
    assert main(["--config", cfg, "--out", str(tmp_path / "deep")]) == 0
    assert b"move m=2" in (tmp_path / "deep" / "transcript.txt").read_bytes()


def test_verify_projection_pass_and_corrupt_fail(tmp_path):
    good = write_cfg(tmp_path, "good.cfg", """
        command = verify
        verify.check = projection
        verify.u = 10
        verify.block = 1
        verify.radius = 15
    """)
    assert main(["--config", good, "--out", str(tmp_path / "g")]) == 0
    assert "status = pass" in (tmp_path / "g" / "report.txt").read_text()
    bad = write_cfg(tmp_path, "bad.cfg", """
        command = verify
        verify.check = projection
        verify.u = 10
        verify.block = 1
        verify.radius = 15
        verify.corrupt = true
    """)
    assert main(["--config", bad, "--out", str(tmp_path / "b")]) == 2
    report = (tmp_path / "b" / "report.txt").read_text()
    assert "status = fail" in report and "witness = " in report


def test_verify_budget(tmp_path):
    cfg = write_cfg(tmp_path, "budget.cfg", """
        command = verify
        verify.check = budget
        family.kind = rco
        family.u = 4
        family.v = 5
        family.m = 2
        family.t = 1
        game.c = 0.5
        generate.depth = 2
        verify.levels = 1,2
    """)
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 0
    report = (tmp_path / "report.txt").read_text()
    assert "level.1.legal = true" in report and "worst_hits = " in report


def test_verify_budget_rejects_levels_the_strategy_lacks(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "budget.cfg", """
        command = verify
        verify.check = budget
        family.kind = rco
        family.u = 4
        family.v = 5
        family.m = 2
        family.t = 1
        game.c = 0.5
        generate.depth = 2
        verify.levels = 7, 9
    """)
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "verify.levels" in err and "no level 7, 9" in err
    assert not (tmp_path / "out").exists()


def test_verify_transfer_samples(tmp_path):
    cfg = write_cfg(tmp_path, "transfer.cfg", """
        command = verify
        verify.check = transfer
        verify.samples = 2000
        verify.seed = 7
    """)
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 0
    assert "failures = 0" in (tmp_path / "report.txt").read_text()


def test_find_pattern_below_the_generated_depth(tmp_path, capsys):
    # at one scale and one grid step, the depth-1 kept region keeps every
    # candidate the depth-2 one does, and more; each file's depth column
    # reads its query depth
    rows = {}
    for depth in (1, 2):
        cfg = write_cfg(tmp_path, f"pat{depth}.cfg", f"""
            command = find-pattern
            family.kind = rcd
            family.u = 7
            family.v = 4
            generate.depth = 2
            pattern.points = 0,0; 2,0
            pattern.lambda_lo = 1/49
            pattern.resolution = 1/98
            pattern.depth = {depth}
        """)
        assert main(["--config", cfg, "--out", str(tmp_path / str(depth))]) == 0
        lines = (tmp_path / str(depth) / "candidates.csv").read_text().splitlines()[1:]
        assert lines and {line.rsplit(",", 1)[1] for line in lines} == {str(depth)}
        rows[depth] = {line.rsplit(",", 1)[0] for line in lines}
    assert rows[2] < rows[1]


def test_find_pattern_and_clean_empty(tmp_path, capsys):
    found = write_cfg(tmp_path, "pat.cfg", """
        command = find-pattern
        family.kind = rcd
        family.u = 7
        family.v = 4
        generate.depth = 2
        pattern.points = 0,0; 2,0
        pattern.lambda_lo = 1/49
    """)
    assert main(["--config", found, "--out", str(tmp_path / "f")]) == 0
    header = (tmp_path / "f" / "candidates.csv").read_text().splitlines()[0]
    assert header == "lambda,x1,x2,max_depth_passed"
    empty = write_cfg(tmp_path, "none.cfg", """
        command = find-pattern
        family.kind = rcd
        family.u = 7
        family.v = 4
        generate.depth = 1
        pattern.points = 0,0; 60,0
        pattern.lambda_lo = 1/10
    """)
    assert main(["--config", empty, "--out", str(tmp_path / "e")]) == 2
    assert (tmp_path / "e" / "candidates.csv").read_text().splitlines() == [
        "lambda,x1,x2,max_depth_passed"]


def test_smallest_u_quick(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "su.cfg", """
        command = smallest-u
        smallest.pattern_count = 2
        smallest.gap = 0
    """)
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 0
    text = (tmp_path / "smallest.txt").read_text()
    assert "u = 94371030244" in text
    assert "u_pattern_count = 2" in text and "below_pattern_count = 1" in text


TRACE_LINE = "t=%.17g c=%.17g count=%d dim=%.17g delta=%.17g\n"
SMALLEST_CFG = "command = smallest-u\nsmallest.pattern_count = 2\n"
# each command that writes a trace: its config and the search it runs
TRACED_RUNS = {
    "maximize": (MAXIMIZE_CFG, lambda: optimize.optimize_pattern_count(RcoSpec(17, 24, 1, 5))),
    "intersect": (
        "command = intersect\n"
        "member.1.kind = rcd\nmember.1.u = 68719476736\nmember.1.v = 1099511627776\n"
        "member.2.kind = rco\nmember.2.u = 68719476736\nmember.2.v = 1099511627776\n"
        "member.2.m = 1\nmember.2.t = 1\n",
        lambda: optimize.optimize_intersection(
            [RcdSpec(2 ** 36, 2 ** 40), RcoSpec(2 ** 36, 2 ** 40, 1, 1)])),
    "smallest-u": (SMALLEST_CFG, lambda: optimize.smallest_u_for_patterns(2, 0).result),
}


@pytest.mark.parametrize("command", list(TRACED_RUNS))
def test_trace_is_the_search_that_ran(tmp_path, capsys, command):
    # --trace adds trace.txt, the in-process search's trace, and its "wrote"
    # line; every other artifact and stdout line stays as without it
    body, search = TRACED_RUNS[command]
    cfg = write_cfg(tmp_path, "run.cfg", body)
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    assert main(["--config", cfg, "--out", str(plain)]) == 0
    plain_out = capsys.readouterr().out.replace(str(plain), str(traced)).splitlines()
    assert main(["--config", cfg, "--out", str(traced), "--trace"]) == 0
    traced_out = capsys.readouterr().out.splitlines()
    wrote = f"wrote {traced / 'trace.txt'}"
    assert wrote in traced_out
    assert [line for line in traced_out if line != wrote] == plain_out
    names = sorted(p.name for p in plain.iterdir())
    assert sorted(p.name for p in traced.iterdir()) == sorted(names + ["trace.txt"])
    for name in names:
        assert (traced / name).read_bytes() == (plain / name).read_bytes(), name
    result = search()
    assert result.trace
    assert (traced / "trace.txt").read_text() == "".join(TRACE_LINE % row for row in result.trace)


def test_smallest_u_trace_is_the_answers_search(tmp_path, capsys):
    # the trace is of the search at u, so it holds u's winner; the last
    # search run is at u - 1, which does not certify the count
    cfg = write_cfg(tmp_path, "su.cfg", SMALLEST_CFG)
    assert main(["--config", cfg, "--out", str(tmp_path), "--trace"]) == 0
    res = optimize.smallest_u_for_patterns(2, 0).result
    winner = TRACE_LINE % (res.t, res.c, res.pattern_count, res.dim_bound, res.delta)
    assert winner in (tmp_path / "trace.txt").read_text().splitlines(keepends=True)


@pytest.mark.parametrize("body,needle", [
    ("command = maximize\nfamily.kind = rco\nfamily.u = 17\nfamily.v = 24\nfamily.mm = 1\n",
     "family.mm"),
    ("command = certify\nfamily.kind = rco\nfamily.u = banana\nfamily.v = 24\ngame.c = 0.9\n",
     "family.u"),
    ("command = generate\nfamily.kind = rcd\nfamily.u = 7\nfamily.v = 4\n",
     "generate.depth"),
    ("command = certify\nfamily.kind = rco\nfamily.u = 17\nfamily.v = 24\ngame.c = 1.5\n",
     "game.c"),
    ("command = generate\nfamily.kind = rcd\nfamily.u = 7\nfamily.u = 8\n",
     "duplicate"),
    ("family.kind = rcd\nfamily.u = 7\nfamily.v = 4\ngenerate.depth = 1\n",
     "no command given"),
    ("command = verify\nverify.check = budget\nfamily.kind = rco\nfamily.u = 4\n"
     "family.v = 5\nfamily.m = 2\nfamily.t = 1\ngame.c = 0.5\ngenerate.depth = 2\n"
     "verify.extent = 100000\n", "verify.extent"),
    # Fraction would expand each exponent into an exact power of ten
    ("command = find-pattern\nfamily.kind = rcd\nfamily.u = 7\nfamily.v = 4\n"
     "generate.depth = 1\npattern.points = 0,0; 60,0\npattern.lambda_lo = 1e1000000000\n",
     "pattern.lambda_lo"),
    ("command = verify\nverify.check = overlap\nverify.u = 10,10\nverify.level = 1\n"
     "verify.exponent = 1\nverify.center = 1e1000000000, 0\n", "verify.center"),
    ("command = verify\nverify.check = overlap\nverify.u = 10,10\nverify.level = 1\n"
     "verify.exponent = 1\nverify.center = 1/3, 1/7; 1,1\n",
     "verify.center: expected a single 'x,y' point"),
])
def test_malformed_configs_exit_1_with_field_path(tmp_path, capsys, body, needle):
    cfg = write_cfg(tmp_path, "cfg", body)
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert needle in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("body", [
    "verify.check = child-grid\nverify.u = 0\nverify.block = 1\n",
    "verify.check = child-grid\nverify.u = 1\nverify.block = 1\n",
    "verify.check = overlap\nverify.u = 0,1\nverify.level = 1\nverify.exponent = 1\n",
    # u = 1 is no contraction, so a failed containment is no counterexample
    "verify.check = half-shrink\nverify.u = 1\nverify.block = 3\nverify.level = 2\n",
])
def test_verify_refuses_ratios_below_2(tmp_path, capsys, body):
    cfg = write_cfg(tmp_path, "cfg", "command = verify\n" + body)
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "verify.u: every entry must be >= 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("body,key", [
    ("projection\nverify.u = 10\nverify.block = 3\nverify.radius = 10000000", "verify.radius"),
    ("projection\nverify.u = 10\nverify.block = 3\nverify.radius = 100000", "verify.radius"),
    ("projection\nverify.u = 10\nverify.block = 7", "verify.block"),
    # the table would not fit even at block 1 and radius 1
    ("projection\nverify.u = 10000000\nverify.block = 1", "verify.u"),
    ("projection\nverify.u = 10000000000000000000\nverify.block = 300", "verify.u"),
    ("half-shrink\nverify.u = 10\nverify.block = 3\nverify.level = 2\n"
     "verify.radius = 100000000000", "verify.radius"),
    # past the sweep's int64 arithmetic
    ("half-shrink\nverify.u = 10000000000000000000\nverify.block = 3\nverify.level = 2",
     "verify.u"),
    ("child-grid\nverify.u = 10,10\nverify.block = 3", "verify.block"),
    ("child-grid\nverify.u = 10\nverify.block = 7", "verify.block"),
    ("child-grid\nverify.u = 10\nverify.block = 30", "verify.block"),
    ("child-grid\nverify.u = 10\nverify.block = 1\nverify.k = 100000000", "verify.k"),
    ("overlap\nverify.u = 10,10\nverify.level = 4000\nverify.exponent = 1", "verify.level"),
    ("overlap\nverify.u = 10,10\nverify.level = 100000000\nverify.exponent = 1",
     "verify.level"),
    ("overlap\nverify.u = 10,10\nverify.level = 1\nverify.exponent = 100000000",
     "verify.exponent"),
    ("transfer\nverify.samples = 10000000", "verify.samples"),
])
def test_verify_refuses_oversized_inputs_before_work(tmp_path, capsys, monkeypatch, body, key):
    # each would crash, exhaust memory or run for seconds to minutes; the
    # first step of each check's work raises, so a refusal comes before it
    def no_work(*args, **kwargs):
        raise AssertionError("started work before checking the input size")

    for name in ("_axis_table", "_rhd_array", "Fraction", "potential_transfer_bound"):
        monkeypatch.setattr(gamesim, name, no_work)
    cfg = write_cfg(tmp_path, "cfg", f"command = verify\nverify.check = {body}\n")
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config: {key}: "), err
    assert "over the limit of" in err or "must be <= 262144" in err, err
    assert not (tmp_path / "out").exists()


def test_config_ratio_past_the_float_range_is_a_config_error():
    huge = "1" + "0" * 400 + "/1"
    with pytest.raises(ConfigError, match="game.c: expected a number"):
        Config({"game.c": huge}, "test").get_float("game.c")


RCO_FAMILY = "family.kind = rco\nfamily.u = 4\nfamily.v = 5\nfamily.m = 2\nfamily.t = 1\n"
RCO_GAME = RCO_FAMILY + "game.c = 0.5\n"
RCD_GAME = "family.kind = rcd\nfamily.u = 7\nfamily.v = 4\ngame.c = 0.5\n"
SIMULATE = "command = simulate\nsimulate.target = 7/8, 9/10\n"
BUDGET = "command = verify\nverify.check = budget\n"


def _patch_geometry_work(monkeypatch):
    """Make the first step of building a member or a strategy's covers raise."""
    from gamecert import families

    def no_work(*args, **kwargs):
        raise AssertionError("started work before checking the geometry size")

    for name in ("_cutout_columns", "_rcd_levels", "_cover_piece"):
        monkeypatch.setattr(families, name, no_work)


@pytest.mark.parametrize("body,needle", [
    ("command = generate\n" + RCO_FAMILY + "generate.depth = 12\n", "generate.depth"),
    ("command = generate\nfamily.kind = rcd\nfamily.u = 7\nfamily.v = 4\n"
     "generate.depth = 1000000000\n", "generate.depth"),
    ("command = generate\nfamily.kind = rcd\nfamily.u = 2\nfamily.v = 2\n"
     "generate.depth = 1000000000\n", "generate.depth"),
    (BUDGET + "family.kind = rcd\nfamily.u = 2\nfamily.v = 2\ngame.c = 0.5\n"
     "game.t = 1\ngenerate.depth = 1000000000\n", "generate.depth"),
    (SIMULATE + RCO_GAME + "simulate.moves = 12\n", "simulate.moves"),
    (SIMULATE + RCD_GAME + "game.t = 1\ngenerate.depth = 9\nsimulate.moves = 3\n",
     "generate.depth"),
    (SIMULATE + RCD_GAME + "game.t = 10\nsimulate.moves = 2\n", "game.t"),
    (BUDGET + RCO_GAME + "generate.depth = 12\n", "generate.depth"),
    (BUDGET + RCD_GAME + "game.t = 10\n", "game.t"),
    (BUDGET + RCD_GAME + "game.t = 1000000000\n", "game.t"),
])
def test_oversized_geometry_exits_1_at_once(tmp_path, capsys, monkeypatch, body, needle):
    _patch_geometry_work(monkeypatch)
    cfg = write_cfg(tmp_path, "cfg", body)
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"error: config: {needle}: " in err and "boxes" in err
    assert not (tmp_path / "out").exists()


RCD22 = "family.kind = rcd\nfamily.u = 2\nfamily.v = 2\n"


@pytest.mark.parametrize("body", [
    "command = generate\n" + RCD22 + "generate.depth = 100000\n",
    SIMULATE + RCD22 + "game.c = 0.5\ngame.t = 1\ngenerate.depth = 100000\nsimulate.moves = 2\n",
    BUDGET + RCD22 + "game.c = 0.5\ngame.t = 1\ngenerate.depth = 100000\n",
    "command = find-pattern\n" + RCD22 + "generate.depth = 100000\npattern.points = 0,0; 2,0\n"
    "pattern.lambda_lo = 1/49\n",
])
def test_numerator_heavy_geometry_exits_1_at_once(tmp_path, capsys, monkeypatch, body):
    # RCD(2,2) has one box a level, so the box limit admits depth 100000, but
    # its numerators grow a bit a level: the numerator-bit limit refuses it
    _patch_geometry_work(monkeypatch)
    cfg = write_cfg(tmp_path, "cfg", body)
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "error: config: generate.depth: " in err and "numerator bits" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("body,key", [
    ("command = generate\nfamily.kind = rco\nfamily.u = 2\nfamily.v = 3\nfamily.m = 1\n"
     "family.t = 1000000\ngenerate.depth = 1\n", "family.t"),
    (SIMULATE + "family.kind = rco\nfamily.u = 2\nfamily.v = 3\nfamily.m = 1\n"
     "family.t = 1000000\ngame.c = 0.5\nsimulate.moves = 1\n", "family.t"),
    ("command = generate\n" + RCD22 + "generate.depth = 14000\n", "generate.depth"),
])
def test_denominators_past_the_digit_limit_exit_1_at_once(tmp_path, capsys, monkeypatch,
                                                          body, key):
    # the CSV would need a decimal of over 4,300 digits, which Python refuses
    _patch_geometry_work(monkeypatch)
    cfg = write_cfg(tmp_path, "cfg", body)
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"error: config: {key}: " in err and "denominator bits" in err
    assert not (tmp_path / "out").exists()


PATTERN = "command = find-pattern\npattern.points = 0,0; 2,0\npattern.lambda_lo = 1/49\n"
README_PATTERN = PATTERN + "family.kind = rcd\nfamily.u = 7\nfamily.v = 4\ngenerate.depth = 2\n"


@pytest.mark.parametrize("body,key", [
    (README_PATTERN + "pattern.resolution = 1/1000000000\n", "pattern.resolution"),
    (README_PATTERN + "pattern.resolution = 1/100000\n", "pattern.resolution"),
    # the default resolution, half the smallest half-width at depth 20
    (PATTERN + RCD22 + "generate.depth = 20\n", "pattern.resolution"),
    # each scale fits, but not the 1,960 scales up to 1, past which none fits
    (README_PATTERN + "pattern.lambda_hi = 100\npattern.resolution = 1/2000\n",
     "pattern.lambda_hi"),
    ("command = generate\n" + RCO_FAMILY + "generate.depth = 2\ngenerate.format = csv,pbm\n"
     "generate.width = 1000000000000\n", "generate.width"),
    ("command = generate\n" + RCO_FAMILY + "generate.depth = 2\ngenerate.format = csv,pbm\n"
     "generate.height = 100000000\n", "generate.height"),
])
def test_scan_and_raster_refuse_oversized_inputs_before_work(tmp_path, capsys, monkeypatch,
                                                             body, key):
    # each exhausts memory at once or builds a grid of tens of GiB; the first
    # step of the scan and of the raster raises, so a refusal comes before it
    # and before any file is written
    import numpy as np

    from gamecert import patterns

    def no_work(*args, **kwargs):
        raise AssertionError("started work before checking the input size")

    monkeypatch.setattr(patterns, "_scale_grid", no_work)
    monkeypatch.setattr(np, "linspace", no_work)
    cfg = write_cfg(tmp_path, "cfg", body)
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config: {key}: "), err
    assert "over the limit of 67108864" in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("raw", ["nan", "-nan", "inf", "-inf", "1e999"])
def test_config_floats_must_be_finite(raw):
    cfg = Config({"game.c": raw, "game.t": raw}, "test")
    with pytest.raises(ConfigError, match="game.c: must be a finite number"):
        cfg.get_float("game.c", lo=0.0, hi=1.0, open_ends=True)
    with pytest.raises(ConfigError, match="game.t: must be a finite number"):
        cfg.get_float("game.t")


@pytest.mark.parametrize("body,needle", [
    ("command = certify\nfamily.kind = raw\nfamily.betas = 0.1\n"
     "family.alpha_log = nan\ngame.c = 0.5\n", "family.alpha_log"),
    ("command = certify\nfamily.kind = raw\nfamily.betas = 0.1\n"
     "family.alpha_log = -inf\ngame.c = 0.5\n", "family.alpha_log"),
    ("command = certify\nfamily.kind = raw\nfamily.betas = 0.1\n"
     "family.alpha = nan\ngame.c = 0.5\n", "family.alpha"),
    ("command = certify\nfamily.kind = raw\nfamily.betas = 0.1\n"
     "family.alpha = 0.01\ngame.c = nan\n", "game.c"),
    ("command = certify\nfamily.kind = raw\nfamily.betas = 0.1\n"
     "family.alpha = 0.01\ngame.c = 0.5\ngame.delta = inf\n", "game.delta"),
    ("command = certify\nfamily.kind = rcd\nfamily.u = 7\nfamily.v = 4\n"
     "game.c = 0.5\ngame.t = nan\n", "game.t"),
    # the search commands read their floats through the same checks
    (MAXIMIZE_CFG + "game.rho2 = nan\n", "game.rho2"),
    (TRACED_RUNS["intersect"][0] + "game.rho2 = inf\n", "game.rho2"),
    (SIMULATE + RCO_FAMILY + "game.c = nan\nsimulate.moves = 2\n", "game.c"),
])
def test_non_finite_config_floats_exit_1(tmp_path, capsys, body, needle):
    cfg = write_cfg(tmp_path, "cfg", body)
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"{needle}: must be a finite number" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


# grid settings under optimizer.*: every search command refuses each as an
# unknown key, since each command searches one fixed grid
FORMER_SEARCH_KEYS = ["c_count", "c_s_lo", "c_s_hi", "refine_passes", "refine_points",
                      "t_lo", "t_hi", "t_step", "pattern_cap"]


@pytest.mark.parametrize("key", FORMER_SEARCH_KEYS)
def test_former_search_grid_keys_are_unknown(tmp_path, capsys, key):
    for body, _ in TRACED_RUNS.values():
        cfg = write_cfg(tmp_path, "cfg", body + f"optimizer.{key} = 2\n")
        assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert f"error: config: optimizer.{key}: unknown key" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["radius", "clamp"])
def test_former_game_keys_are_unknown(tmp_path, capsys, key):
    # the game always starts from the radius-1 box and always clamps, so
    # simulate reads neither key
    cfg = write_cfg(tmp_path, "cfg", SIMULATE + RCO_GAME + f"simulate.moves = 2\nsimulate.{key} = 1\n")
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert (f"error: config: simulate.{key}: key was not consumed by this command"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", list(TRACED_RUNS))
def test_each_search_command_runs_its_fixed_grid(tmp_path, capsys, monkeypatch, command):
    # maximize and intersect search the one search grid, smallest-u each of
    # its searches on the smaller grid
    grids = []
    search = optimize._search

    def recorded(contraction, rate_row, t_values, grid, want_patterns):
        grids.append(grid)
        return search(contraction, rate_row, t_values, grid, want_patterns)

    monkeypatch.setattr(optimize, "_search", recorded)
    cfg = write_cfg(tmp_path, "run.cfg", TRACED_RUNS[command][0])
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 0
    want = optimize._SMALLEST_U_GRID if command == "smallest-u" else optimize._SEARCH_GRID
    assert grids and set(grids) == {want}
    assert (command == "smallest-u") == (len(grids) > 1)


def test_command_conflict_between_argv_and_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "gen.cfg", """
        command = generate
        family.kind = rcd
        family.u = 7
        family.v = 4
        generate.depth = 1
    """)
    assert main(["simulate", "--config", cfg]) == 1
    assert "config says 'generate'" in capsys.readouterr().err
    assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 0


def test_removed_thread_options_are_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "max.cfg", MAXIMIZE_CFG + "optimizer.threads = 2\n")
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "optimizer.threads" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["--config", cfg, "--threads", "2"])
    assert exc.value.code == 2


def test_removed_delta_samples_key_is_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "max.cfg", MAXIMIZE_CFG + "optimizer.delta_samples = 12\n")
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "optimizer.delta_samples" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _run_module(*args):
    """`python <args>` in a child that imports the same gamecert as the
    tests, installed or not."""
    src = str(Path(gamecert.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )


def test_module_entrypoint_runs(tmp_path):
    cfg = write_cfg(tmp_path, "gen.cfg", """
        command = generate
        family.kind = rcd
        family.u = 7
        family.v = 4
        generate.depth = 1
    """)
    proc = _run_module("-m", "gamecert", "--config", cfg, "--out", str(tmp_path))
    assert proc.returncode == 0 and "rectangles.csv" in proc.stdout


def _imported_modules(tmp_path, name, body):
    """Modules, by full name, a fresh `python -m gamecert` run of `body`
    imports; with body None, those a bare `python -c pass` imports."""
    if body is None:
        proc = _run_module("-X", "importtime", "-c", "pass")
    else:
        cfg = write_cfg(tmp_path, f"{name}.cfg", body)
        proc = _run_module("-X", "importtime", "-m", "gamecert",
                           "--config", cfg, "--out", str(tmp_path / name))
    assert proc.returncode == 0, proc.stderr[-2000:]
    return {line.rsplit("|", 1)[-1].strip()
            for line in proc.stderr.splitlines() if line.startswith("import time:")}


def _imported_packages(tmp_path, name, body):
    """Top-level packages a fresh `python -m gamecert` run of `body` imports."""
    return {module.split(".")[0] for module in _imported_modules(tmp_path, name, body)}


def test_certificate_commands_import_neither_numpy_nor_mpmath(tmp_path):
    # most of a short certify process's time went to importing these two
    def run(name, body):
        return _imported_packages(tmp_path, name, body)

    heavy = {"numpy", "mpmath"}
    raw = """
        command = certify
        family.kind = raw
        family.betas = 1/10,1/12
        family.alpha = 1e-12
        game.c = 0.9
    """
    loaded = run("raw", raw)
    assert "gamecert" in loaded and not heavy & loaded
    assert not heavy & run("rco", MAXIMIZE_CFG)
    recheck = f"command = certify\ncertify.certificate = {tmp_path / 'rco' / 'certificate.txt'}\n"
    assert not heavy & run("recheck", recheck)
    # an RCD search settles its cover counts past the float step in core's kernel
    rcd = "command = maximize\nfamily.kind = rcd\nfamily.u = 68719476736\nfamily.v = 1099511627776\n"
    assert "mpmath" not in run("rcd", rcd)


def test_certificate_commands_load_only_what_they_use(tmp_path):
    # a certify process should cost little more than starting the interpreter
    def run(name, body):
        return _imported_modules(tmp_path, name, body)

    raw = ("command = certify\nfamily.kind = raw\nfamily.betas = 1/10,1/12\n"
           "family.alpha = 1e-12\ngame.c = 0.9\n")
    rco = ("command = certify\ncertify.kind = pattern\nfamily.kind = rco\nfamily.u = 17\n"
           "family.v = 24\nfamily.m = 1\nfamily.t = 5\ngame.c = 0.99\n"
           "game.pattern_count = 3\n")
    assert "gamecert.optimize" in run("max", MAXIMIZE_CFG)
    recheck = "command = certify\ncertify.certificate = {}\n"
    loaded = {
        "raw": run("raw", raw),
        "raw recheck": run("raw-recheck", recheck.format(tmp_path / "raw" / "certificate.txt")),
        "max recheck": run("max-recheck", recheck.format(tmp_path / "max" / "certificate.txt")),
    }
    family = run("rco", rco)
    assert "gamecert.families" in family and "gamecert.optimize" not in family
    bare = run("bare", None)
    for name, modules in loaded.items():
        assert "gamecert.certify" in modules and "gamecert.optimize" not in modules, name
        assert "gamecert.families" not in modules, name
        assert not {"dataclasses", "inspect"} & (modules - bare), name


def test_verify_imports_numpy_only_for_the_checks_that_use_it(tmp_path):
    bare = _imported_modules(tmp_path, "bare", None)
    transfer = "command = verify\nverify.check = transfer\nverify.samples = 200\nverify.seed = 7\n"
    overlap = "command = verify\nverify.check = overlap\nverify.u = 4,5\nverify.level = 2\n" \
              "verify.exponent = 3\n"
    child_grid = "command = verify\nverify.check = child-grid\nverify.u = 10,12\nverify.block = 2\n"
    for name, body in (("transfer", transfer), ("overlap", overlap), ("child-grid", child_grid)):
        loaded = _imported_modules(tmp_path, name, body)
        assert "gamecert.gamesim" in loaded and "numpy" not in loaded, name
        # the records are NamedTuples and core.Records, built without dataclasses
        assert not {"dataclasses", "inspect"} & (loaded - bare), name
        # only the budget audit and the game read strategy geometry
        assert "gamecert.families" not in loaded, name
    for name, body in (
        ("projection", "command = verify\nverify.check = projection\nverify.u = 10\n"
                       "verify.block = 1\nverify.radius = 15\n"),
        ("half-shrink", "command = verify\nverify.check = half-shrink\nverify.u = 10\n"
                        "verify.block = 3\nverify.level = 2\n"),
    ):
        loaded = _imported_modules(tmp_path, name, body)
        assert {"numpy", "gamecert.gamesim"} <= loaded, name
        assert not {"gamecert.families", "dataclasses"} & loaded, name
    game = ("family.kind = rco\nfamily.u = 4\nfamily.v = 5\nfamily.m = 2\nfamily.t = 1\n"
            "game.c = 0.5\n")
    for name, body in (
        ("simulate", "command = simulate\n" + game + "simulate.moves = 3\n"
                     "simulate.target = 7/8, 9/10\n"),
        ("find-pattern", "command = find-pattern\nfamily.kind = rcd\nfamily.u = 7\n"
                         "family.v = 4\ngenerate.depth = 2\npattern.points = 0,0; 2,0\n"
                         "pattern.lambda_lo = 1/49\n"),
    ):
        # numpy loads inspect itself, but nothing here needs dataclasses
        assert "dataclasses" not in _imported_modules(tmp_path, name, body), name
    # a member's CSV needs no numpy: a cut-out member's columns repeat in C,
    # and a corner-digit member's, either corner rule, come off a walk in ints
    rcd = "command = generate\nfamily.kind = rcd\nfamily.u = 7\nfamily.v = 4\ngenerate.depth = 2\n"
    for name, generate in (
        ("generate", "command = generate\nfamily.kind = rco\nfamily.u = 4\nfamily.v = 5\n"
                     "family.m = 2\nfamily.t = 1\ngenerate.depth = 3\n"),
        ("generate-rcd", rcd),
        ("generate-rcd-hash", rcd + "family.corner_rule = hash\nfamily.corner_seed = 5\n"),
    ):
        loaded = _imported_modules(tmp_path, name, generate)
        assert "gamecert.families" in loaded and "numpy" not in loaded, name
    budget = ("command = verify\nverify.check = budget\nfamily.kind = rco\nfamily.u = 4\n"
              "family.v = 5\nfamily.m = 2\nfamily.t = 1\ngame.c = 0.5\ngenerate.depth = 1\n")
    assert "numpy" in _imported_packages(tmp_path, "budget", budget)
    # importing the geometry modules loads no numpy either
    probe = ("import sys, gamecert.families, gamecert.gamesim, gamecert.patterns; "
             "print('numpy' in sys.modules)")
    proc = _run_module("-c", probe)
    assert proc.returncode == 0 and proc.stdout.strip() == "False", proc.stderr[-2000:]


def test_simulate_refuses_a_preamble_of_millions_of_lines_at_once(tmp_path):
    # RCD(1000,3) at t = 1 grants 4,015,980 level-0 covers before move 1:
    # the game grants them from the level's lattice, and the transcript
    # refuses to write that many lines, naming the key that drops them
    body = ("command = simulate\nfamily.kind = rcd\nfamily.u = 1000\nfamily.v = 3\n"
            "game.t = 1\ngame.c = 0.001\nsimulate.moves = 1\nsimulate.target = 1/3, 1/3\n")
    src = str(Path(gamecert.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def simulate(text):
        cfg = write_cfg(tmp_path, "big.cfg", text)
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "gamecert", "--config", cfg, "--out",
                               str(tmp_path / "out")], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path), timeout=20)
        assert time.perf_counter() - start < 10
        return proc

    proc = simulate(body)
    assert proc.returncode == 1 and not (tmp_path / "out").exists()
    assert proc.stderr == ("error: config: simulate.preamble: preamble = true needs 4015980 "
                           "preamble lines, over the limit of 1048576\n")
    proc = simulate(body + "simulate.preamble = false\n")
    assert proc.returncode == 0 and (tmp_path / "out" / "transcript.txt").exists(), proc.stderr


# ------------------------------------------------------------ artifact streams


def _reference_csv(rect):
    """RectangleSet.to_csv built as one string per row, each coordinate p/q."""
    out = [f"# {key} = {rect.meta[key]}\n" for key in sorted(rect.meta)]
    out.append("level,address,cx,cy,hx,hy\n")
    for e in rect.entries:
        coords = (f"{x.numerator}/{x.denominator}" for x in e.box.center + e.box.half)
        out.append(",".join([str(e.level), e.address, *coords]) + "\n")
    return "".join(out)


def _reference_candidates(candidates):
    """patterns.candidates_to_csv built as one string per candidate."""
    return "lambda,x1,x2,max_depth_passed\n" + "".join(
        f"{c.lam},{c.x[0]},{c.x[1]},{c.max_depth_passed}\n" for c in candidates)


def _reference_transcript(tr):
    """PlayTranscript.to_text built as a list of lines, joined once."""
    def coords(values):
        return ",".join(map(str, values))

    lines = ["transcript radius=%s c=%.17g alpha_log=%.17g betas=%s"
             % (tr.radius, tr.c, tr.alpha_log, coords(tr.betas))]
    lines += ["preamble q=%d center=%s half=%s mass_log=%.17g"
              % (r.exponent, coords(r.box.center), coords(r.box.half), r.mass_log)
              for r in tr.preamble]
    lines += ["move m=%d center=%s half=%s deletions=%d spent_log=%.17g cap_log=%.17g "
              "skipped=%s" % (mv.move, coords(mv.box.center), coords(mv.box.half),
                              len(mv.deletions), mv.budget_spent_log, mv.budget_cap_log,
                              "true" if mv.skipped else "false")
              for mv in tr.moves]
    return "\n".join(lines) + "\n"


def _assert_stream(chunks, text):
    """The chunks join to `text`, and each is whole lines, at most
    core.CHUNK_LINES of them."""
    chunks = list(chunks)
    assert "".join(chunks) == text
    assert all(c.endswith("\n") and c.count("\n") <= core.CHUNK_LINES for c in chunks)


@pytest.fixture(scope="module")
def artifacts():
    """(stream, reference text) makers for generated members, a member
    rebuilt from its entries, scan results and transcripts with and without
    a preamble."""
    rco, rcd = generate_rco(RcoSpec(4, 5, 2, 1), 2), generate_rcd(RcdSpec(7, 4), 2)
    rects = [rco, rcd, generate_rco(RcoSpec(3, 2, 3, 2), 2, "hash", 9),
             RectangleSet(rco.entries, rco.meta), generate_rco(RcoSpec(3, 3, 33, 2), 2),
             generate_rco(RcoSpec(3, 3, 33, 2), 2, "hash", 1)]
    query = patterns.PatternQuery(((0, 0), (2, 0)), Fraction(1, 49), Fraction(3, 49), 2,
                                  Fraction(1, 49))
    empty = patterns.PatternQuery(((0, 0), (60, 0)), Fraction(1, 10), Fraction(1, 10), 1)
    view = patterns.find_homothety(query, rcd)
    scans = [view, list(view[:50]), patterns.find_homothety(empty, rcd),
             patterns.find_homothety(query, generate_rco(RcoSpec(4, 5, 2, 1), 2, "hash", 3))]
    steer = gamesim.steering_policy((Fraction(7, 8), Fraction(9, 10)))
    rcd_strategy = covering_strategy_for_rcd(RcdSpec(7, 4), 0.5, 1, 3)
    games = [gamesim.play_game(steer, rcd_strategy, 3),
             gamesim.play_game(steer, rcd_strategy, 3, grant_preamble=False),
             gamesim.play_game(steer, covering_strategy_for_rco(rco, 0.5), 2)]
    assert len(view) == 11536 and not scans[2] and games[0].preamble and not games[1].preamble
    return ([(rect.csv_chunks, _reference_csv(rect)) for rect in rects]
            + [(lambda c=c: patterns.candidates_csv_chunks(c), _reference_candidates(c))
               for c in scans]
            + [(tr.text_chunks, _reference_transcript(tr)) for tr in games])


@pytest.mark.parametrize("lines", [1, 2, 3, None])
def test_artifact_streams_join_to_their_strings(artifacts, monkeypatch, lines):
    if lines is not None:
        monkeypatch.setattr(core, "CHUNK_LINES", lines)
    for stream, text in artifacts:
        _assert_stream(stream(), text)


_FRACTIONS = st.fractions(-4, 4, max_denominator=60)


@given(lines=st.integers(1, 4),
       boxes=st.lists(st.tuples(st.integers(0, 3), st.sampled_from(["cell", "cut", "comp"]),
                                st.text("0123_/", max_size=4), _FRACTIONS, _FRACTIONS,
                                st.fractions(Fraction(1, 60), 2, max_denominator=60),
                                st.fractions(Fraction(1, 60), 2, max_denominator=60)),
                      max_size=12),
       meta=st.dictionaries(st.text("abc_", min_size=1, max_size=4),
                            st.text("xyz019", max_size=4), max_size=3),
       candidates=st.lists(st.tuples(_FRACTIONS, _FRACTIONS, _FRACTIONS, st.integers(0, 5)),
                           max_size=8))
@settings(max_examples=60, deadline=None)
def test_hand_built_streams_join_to_their_strings(lines, boxes, meta, candidates):
    rect = RectangleSet([RectEntry(level, f"{kind}:{path}", BoxRegion((cx, cy), (hx, hy)))
                         for level, kind, path, cx, cy, hx, hy in boxes], meta)
    cands = [patterns.PatternCandidate(lam, (x, y), d) for lam, x, y, d in candidates]
    with mock.patch.object(core, "CHUNK_LINES", lines):
        _assert_stream(rect.csv_chunks(), _reference_csv(rect))
        _assert_stream(patterns.candidates_csv_chunks(cands), _reference_candidates(cands))


# A launcher that spawns argv[1:] and prints its exit code and peak RSS (KiB).
# A child's maxrss counts its spawner's resident size at spawn, so the command
# must be spawned from a small process, not from pytest itself.
PEAK_LAUNCHER = ("import os, subprocess, sys\n"
                 "child = subprocess.Popen(sys.argv[1:])\n"
                 "_, status, usage = os.wait4(child.pid, 0)\n"
                 "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n")


def test_generate_peak_memory_follows_the_member_not_its_csv(tmp_path):
    # RCO(4,5,2,1) at depth 4 holds 505,260 boxes in int16 columns and
    # writes a 24 MB CSV; its rows stream to the file, so the process peaks
    # near 32 MB, where building the whole text first peaked at 114 MB (and
    # int64 columns at 46 MB).  Its raster counts the cuts through
    # _grid_hits a fixed chunk at a time and peaks near 46 MB with numpy
    # loaded, where float columns of every cut at once peaked at 71 MB.
    for formats, limit_mb in [("csv", 40), ("csv, pbm", 58)]:
        cfg = write_cfg(tmp_path, "gen.cfg", "command = generate\nfamily.kind = rco\n"
                        "family.u = 4\nfamily.v = 5\nfamily.m = 2\nfamily.t = 1\n"
                        f"generate.depth = 4\ngenerate.format = {formats}\n")
        out = tmp_path / "out"
        proc = _run_module("-c", PEAK_LAUNCHER, sys.executable, "-m", "gamecert",
                           "--config", cfg, "--out", str(out))
        assert proc.returncode == 0, proc.stderr[-2000:]
        code, maxrss_kib = map(int, proc.stdout.split()[-2:])
        assert code == 0 and (out / "rectangles.csv").stat().st_size > 20_000_000
        assert (out / "raster.pbm").exists() == ("pbm" in formats)
        assert maxrss_kib / 1024 < limit_mb, formats


def _interrupted(stream):
    """`stream`, raising after its first chunk."""
    def chunks(*args):
        it = stream(*args)
        yield next(it)
        raise RuntimeError("interrupted")
    return chunks


@pytest.mark.parametrize("command,owner,attr,name", [
    ("generate", RectangleSet, "csv_chunks", "rectangles.csv"),
    ("find-pattern", patterns, "candidates_csv_chunks", "candidates.csv"),
    ("simulate", gamesim.PlayTranscript, "text_chunks", "transcript.txt"),
])
def test_an_interrupted_stream_leaves_no_partial_artifact(tmp_path, monkeypatch,
                                                          command, owner, attr, name):
    body = {
        "generate": "family.kind = rco\nfamily.u = 4\nfamily.v = 5\nfamily.m = 2\n"
                    "generate.depth = 2\n",
        "find-pattern": "family.kind = rcd\nfamily.u = 7\nfamily.v = 4\ngenerate.depth = 2\n"
                        "pattern.points = 0,0; 2,0\npattern.lambda_lo = 1/49\n"
                        "pattern.lambda_hi = 3/49\n",
        "simulate": "family.kind = rco\nfamily.u = 4\nfamily.v = 5\nfamily.m = 2\n"
                    "family.t = 1\ngame.c = 0.5\nsimulate.moves = 3\n"
                    "simulate.target = 7/8, 9/10\n",
    }[command]
    cfg = write_cfg(tmp_path, "run.cfg", f"command = {command}\n{body}")
    kept = tmp_path / "kept"
    assert main(["--config", cfg, "--out", str(kept)]) == 0
    written = (kept / name).read_bytes()
    monkeypatch.setattr(owner, attr, _interrupted(getattr(owner, attr)))
    for out in (tmp_path / "fresh", kept):
        with pytest.raises(RuntimeError, match="interrupted"):
            main(["--config", cfg, "--out", str(out)])
    # nothing of the interrupted write remains; an earlier artifact is whole
    assert list((tmp_path / "fresh").iterdir()) == []
    assert [p.name for p in kept.iterdir()] == [name] and (kept / name).read_bytes() == written
