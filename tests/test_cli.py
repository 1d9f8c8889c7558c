"""End-to-end command-line behavior: exit codes, artifacts, determinism."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gamecert
from gamecert.cli import main


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


def test_verify_transfer_samples(tmp_path):
    cfg = write_cfg(tmp_path, "transfer.cfg", """
        command = verify
        verify.check = transfer
        verify.samples = 2000
        verify.seed = 7
    """)
    assert main(["--config", cfg, "--out", str(tmp_path)]) == 0
    assert "failures = 0" in (tmp_path / "report.txt").read_text()


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
])
def test_malformed_configs_exit_1_with_field_path(tmp_path, capsys, body, needle):
    cfg = write_cfg(tmp_path, "cfg", body)
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert needle in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def test_module_entrypoint_runs(tmp_path):
    cfg = write_cfg(tmp_path, "gen.cfg", """
        command = generate
        family.kind = rcd
        family.u = 7
        family.v = 4
        generate.depth = 1
    """)
    # the child imports the same gamecert as the tests, installed or not
    src = str(Path(gamecert.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "gamecert", "--config", cfg, "--out", str(tmp_path)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0 and "rectangles.csv" in proc.stdout
