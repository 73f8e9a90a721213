"""tests/bench_pairs.py's summarizers on canned perfbench/run.py output and CLI timings; nothing runs here."""

import json

import pytest

import bench_pairs
from bench_pairs import (
    compare, digests, mismatches, parse_run, record, report, select, src_lines, summarize, summarize_cli, verdict,
)
from cli_goldens import SLOW

SPEC = bench_pairs.SPEC["end_to_end"]

DIGEST = "4daf4d254a8502f2c11606535251a56d535fbbc66917adc3e7d56f53b71a8cb6"


def canned(wall_s, digest=DIGEST, failed=0):
    """run.py's report of one catalan run, with wall_s and op_p50_s set as given."""
    metrics = {
        "wall_s": (wall_s, "s"), "op_p50_s": (wall_s / 24, "s"), "op_tail_s": (0.0493, "s"),
        "setup_s": (0.407, "s"), "peak_rss_mb": (35.18, "MB"), "ok_frac": (1 - failed / 24, "fraction"),
    }
    lines = [
        "== catalan  seed=1  blocks=6  operations=24",
        "   machine: nproc=2 cpu='Intel(R) Xeon(R) Processor' python=3.11.7 numpy=2.4.6 load1=0.32 speed=1.891 of calibration",
        *(f"   {k:<50} {v:>16.6g} {u}" for k, (v, u) in metrics.items()),
        f"   output digest sha256:{digest}",
        json.dumps({"correct": True, "attempted": 24, "failed": failed,
                    "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}),
    ]
    return "\n".join(lines) + "\n"


def run(wall_s, **kw):
    return {**parse_run(canned(wall_s, **kw)), "workload": "catalan"}


def test_parse_run_reads_the_report_and_the_json_line():
    r = parse_run(canned(1.11))
    assert r["machine"].startswith("nproc=2 cpu='Intel(R) Xeon(R) Processor' python=3.11.7")
    assert r["digest"] == DIGEST
    assert (r["correct"], r["failed"]) == (True, 0)
    assert r["metrics"]["wall_s"] == 1.11 and set(r["metrics"]) == {m["name"] for m in SPEC}


def pairs_of(base, head):
    return [(run(b), run(h)) for b, h in zip(base, head)]


BASE = [1.10, 1.09, 1.11, 1.08, 1.12, 1.10, 1.09, 1.11, 1.10, 1.10]


def test_nine_wins_in_ten_and_a_gain_past_the_quartiles_is_better():
    head = [0.98, 0.97, 0.99, 0.96, 1.00, 0.98, 0.97, 0.99, 0.98, 1.11]  # loses only the last pair
    c = summarize(pairs_of(BASE, head), SPEC)["wall_s"]
    assert (c["won"], c["pairs"], c["better"], c["worse"]) == (9, 10, True, False)
    assert c["base"][1] == pytest.approx(1.10) and c["head"][1] == pytest.approx(0.98)
    assert c["change"] == pytest.approx(-0.12 / 1.10)
    assert "won 9/10  better" in "\n".join(report("catalan:", summarize(pairs_of(BASE, head), SPEC)))


def test_eight_wins_in_ten_is_no_claim():
    head = [0.98, 0.97, 0.99, 0.96, 1.00, 0.98, 0.97, 0.99, 1.12, 1.11]
    c = summarize(pairs_of(BASE, head), SPEC)["wall_s"]
    assert (c["won"], c["better"]) == (8, False)


def test_a_gain_inside_the_base_spread_is_no_claim():
    # wins every pair, but by less than the base's interquartile range
    head = [b - 0.005 for b in BASE]
    c = compare(BASE, head, "lower", 0.2)
    assert c["won"] == 10 and c["base"][2] - c["base"][0] > 0.005 and not c["better"]


def test_worse_beyond_the_bound_and_higher_is_better():
    assert compare([1.0] * 4, [1.25] * 4, "lower", 0.2)["worse"]
    assert not compare([1.0] * 4, [1.15] * 4, "lower", 0.2)["worse"]
    c = compare([0.5] * 6, [1.0] * 6, "higher", 0.02)
    assert (c["won"], c["better"], c["worse"]) == (6, True, False)
    assert compare([1.0] * 6, [0.9] * 6, "higher", 0.02)["worse"]


def test_more_failed_operations_on_head_is_no_gain():
    head = [0.98, 0.97, 0.99, 0.96, 1.00, 0.98, 0.97, 0.99, 0.98, 0.97]
    pairs = pairs_of(BASE, head)
    assert summarize(pairs, SPEC)["wall_s"]["better"]
    pairs[3] = (pairs[3][0], run(head[3], failed=1))
    c = summarize(pairs, SPEC)["wall_s"]
    assert (c["won"], c["better"], c["worse"]) == (10, False, False)
    # as many failures on both sides leaves the gain standing
    pairs[5] = (run(BASE[5], failed=1), pairs[5][1])
    assert summarize(pairs, SPEC)["wall_s"]["better"]


def test_a_base_spread_wider_than_the_bound_is_unresolved():
    base = [1.0, 1.5, 1.0, 1.5, 1.0, 1.5]  # interquartile range 0.5 on a median of 1.25, bound 0.2
    c = compare(base, [1.2] * 6, "lower", 0.2)
    assert (c["better"], c["worse"], c["unresolved"]) == (False, False, True)
    assert verdict(c) == "unresolved: base spread wider than bound"
    # every HEAD run beats every BASE run: resolved, though the gain is inside the base's spread
    c = compare(base, [0.9] * 6, "lower", 0.2)
    assert (c["unresolved"], verdict(c)) == (False, "no claim")
    assert verdict(compare(base, [0.5] * 6, "lower", 0.2)) == "better"
    # a narrow base spread never reads as unresolved
    assert verdict(compare(BASE, BASE, "lower", 0.2)) == "no claim"


def test_digest_and_failure_lines():
    pairs = [(run(1.1), run(1.0)), (run(1.1), run(1.0, digest="0" * 64)), (run(1.1, failed=1), run(1.0))]
    lines = digests(pairs)
    assert len(lines) == 2
    assert lines[0].startswith("  pair 1: output digests differ, base 4daf4d254a8502f2 head 0000000000000000")
    assert lines[1] == "  pair 2: base checked correct=True with 1 failed"
    assert digests(pairs[:1]) == []
    # one line per distinct (base, head) digest pair, naming the runs of pairs it covers
    other = "1" * 64
    pairs = [(run(1.1), run(1.0, digest="0" * 64)) for _ in range(12)]
    assert digests(pairs) == ["  pairs 0-11: output digests differ, base 4daf4d254a8502f2 head 0000000000000000"]
    pairs[3], pairs[8] = (run(1.1), run(1.0)), (run(1.1, digest=other), run(1.0, digest="0" * 64, failed=2))
    assert digests(pairs) == [
        "  pairs 0-2, 4-7, 9-11: output digests differ, base 4daf4d254a8502f2 head 0000000000000000",
        "  pair 8: output digests differ, base 1111111111111111 head 0000000000000000",
        "  pair 8: head checked correct=True with 2 failed",
    ]


def test_record_keeps_the_quartiles_digests_and_revision():
    runs = [run(w) for w in (1.0, 1.2, 1.1, 1.3, 1.4)]
    point = record(runs, "a" * 40, "b" * 40, 2316, 1, "c" * 40)
    assert (point["revision"], point["src_tree"], point["compared_with"]) == ("a" * 40, "b" * 40, "c" * 40)
    assert point["src_lines"] == 2316
    assert point["command"] == "python3 perfbench/run.py --workload W --seed 1"
    assert point["machine"] == runs[0]["machine"]
    cat = point["workloads"]["catalan"]
    assert cat["runs"] == 5 and cat["digests"] == [DIGEST]
    assert cat["metrics"]["wall_s"] == pytest.approx({"q1": 1.1, "median": 1.2, "q3": 1.3})
    assert json.loads(json.dumps(point)) == point


def test_src_lines_counts_the_newlines_of_the_package_modules(tmp_path):
    package = tmp_path / "src" / "ced"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text('__version__ = "0"\n')
    (package / "cli.py").write_text("import sys\n\n\ndef main():\n    pass\n")
    (package / "notes.txt").write_text("not a module\n")  # only *.py counts, as in `wc -l src/ced/*.py`
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_cli.py").write_text("x = 1\n")
    assert src_lines(tmp_path) == 6


ROWS = [
    ("rho-c --d 1000 --lambda 399777/100 --tol 1/8", 0, "a" * 64, 15),
    ("rho-c --d 1000 --lambda-grid 3997:4:10 --tol 1/8", 0, "b" * 64, 30),
    ("rho-c --d 10000 --lambda 1 --tol 1/8", 0, "c" * 64, 30),
    ("decide --d 2 --lambda 1 --rho 1", 1, "d" * 64, 15),
]


def test_select_matches_whole_words_of_any_prefix():
    assert select(ROWS, ["rho-c --d 1000"]) == ROWS[:2]
    assert select(ROWS, ["rho-c  --d   1000 --lambda-grid"]) == ROWS[1:2]  # words, not characters
    assert select(ROWS, ["rho-c --d 100"]) == []
    assert select(ROWS, ["decide", "rho-c --d 10000"]) == ROWS[2:]
    assert select(ROWS, []) == []
    # the table's own near-edge rows at d = 1000, the near-edge grid among them
    near_edge = select(SLOW, ["rho-c --d 1000"])
    assert len(near_edge) == 4 and any("--lambda-grid 3997:399799/100:10" in row[0] for row in near_edge)


def timed(wall_s, row=ROWS[0], **kw):
    """A canned run of a row: its recorded exit code and digest unless given."""
    return {"wall_s": wall_s, "code": kw.get("code", row[1]), "digest": kw.get("digest", row[2])}


def test_cli_wall_time_takes_the_verdict_rule_with_wall_s_bound():
    head = [0.7 * b for b in BASE]
    pairs = [(timed(b), timed(h)) for b, h in zip(BASE, head)]
    c = summarize_cli(ROWS[0], pairs)["wall_s"]
    assert (c["won"], c["pairs"], c["better"], c["worse"]) == (10, 10, True, False)
    assert c["change"] == pytest.approx(-0.3)
    assert "won 10/10  better" in "\n".join(report("ced rho-c:", summarize_cli(ROWS[0], pairs)))
    # 25 % slower is past wall_s's bound of 0.2
    assert summarize_cli(ROWS[0], [(timed(b), timed(1.25 * b)) for b in BASE])["wall_s"]["worse"]
    assert mismatches(ROWS[0], pairs) == []


def test_a_run_off_the_row_is_a_failure_and_listed():
    pairs = [(timed(b), timed(0.7 * b)) for b in BASE]
    pairs[2] = (pairs[2][0], timed(0.7, digest="0" * 64))
    pairs[4] = (timed(1.1, code=None, digest=""), pairs[4][1])  # past the row's time limit
    c = summarize_cli(ROWS[0], pairs)["wall_s"]
    assert (c["won"], c["better"]) == (10, True)  # one failure a side
    pairs[6] = (pairs[6][0], timed(0.7, code=70))
    assert not summarize_cli(ROWS[0], pairs)["wall_s"]["better"]  # HEAD failed more runs
    assert mismatches(ROWS[0], pairs) == [
        "  pair 2: head exit 0, stdout 0000000000000000; recorded exit 0, aaaaaaaaaaaaaaaa",
        "  pair 4: base exit None, stdout ; recorded exit 0, aaaaaaaaaaaaaaaa",
        "  pair 6: head exit 70, stdout aaaaaaaaaaaaaaaa; recorded exit 0, aaaaaaaaaaaaaaaa",
    ]


def test_record_adds_a_cli_section():
    runs = [run(w) for w in (1.0, 1.2, 1.1)]
    cli = {ROWS[0][0]: [timed(w) for w in (2.0, 2.4, 2.2, 2.6, 2.8)], ROWS[3][0]: [timed(0.1, ROWS[3])]}
    point = record(runs, "a" * 40, "b" * 40, 2313, 1, "c" * 40, cli)
    assert point["workloads"]["catalan"]["runs"] == 3 and point["cli"]["command"] == "python3 -m ced.cli ARGV"
    near = point["cli"]["rows"][ROWS[0][0]]
    assert (near["runs"], near["codes"], near["digests"]) == (5, [0], ["a" * 64])
    assert near["wall_s"] == pytest.approx({"q1": 2.2, "median": 2.4, "q3": 2.6})
    assert point["cli"]["rows"][ROWS[3][0]]["codes"] == [1]
    assert json.loads(json.dumps(point)) == point
    # a point with CLI rows alone names the machine itself
    alone = record([], "a" * 40, "b" * 40, 2313, 1, "c" * 40, cli)
    assert alone["workloads"] == {} and alone["machine"].startswith("nproc=")
    assert "cli" not in record(runs, "a" * 40, "b" * 40, 2313, 1, "c" * 40)
