import hashlib
import json
import time
from fractions import Fraction as F

import pytest

import entrolab.logistic as logistic
from entrolab.cli import main
from entrolab.interval_maps import PWLMap, tent_map
from entrolab.logistic import DEFAULT_PERIOD_CAP, CenterCache, enumerate_centers
from entrolab.numkit import (
    RatInterval,
    critical_orbit_expr,
    format_rational,
    parse_rational,
    refine_root,
)


def write_json(path, payload):
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture()
def tent_file(tmp_path):
    return write_json(
        tmp_path / "tent.json",
        {"nodes": [["0/1", "0/1"], ["1/2", "1/1"], ["1/1", "0/1"]]},
    )


@pytest.fixture()
def skew_file(tmp_path):
    # a tent map with its peak off center, so its slopes differ
    return write_json(
        tmp_path / "skew.json",
        {"nodes": [["0/1", "0/1"], ["1/4", "1/1"], ["1/1", "0/1"]]},
    )


@pytest.fixture()
def golden_file(tmp_path):
    return write_json(tmp_path / "golden.json", {"alphabet": 2, "allowed": [[1, 1], [1, 0]]})


def test_logistic_exact_endpoints(capsys):
    assert main(["entropy", "logistic", "--r", "2", "--eps", "1e-3"]) == 0
    out = capsys.readouterr().out
    assert "h in [0, 0] EXACT" in out
    assert main(["entropy", "logistic", "--r", "4", "--eps", "1e-3"]) == 0
    assert "h in [1, 1] EXACT" in capsys.readouterr().out


def test_logistic_sandwich(tmp_path, capsys, session_cache):
    code = main(
        [
            "--format", "json",
            "entropy", "logistic", "--r", "3.5", "--eps", "0.05",
            "--max-period", "10", "--cache-path", str(session_cache.path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["provenance"] == "SANDWICH"
    lo, hi = (parse_rational(v) for v in payload["h"])
    assert F(0) <= lo <= hi <= F(5, 100)


def test_logistic_budget_exit_code(tmp_path, capsys):
    code = main(
        [
            "entropy", "logistic", "--r", "3.99", "--eps", "1e-6",
            "--max-period", "2", "--cache-path", str(tmp_path / "c.jsonl"),
        ]
    )
    assert code == 3


def test_pwl_variation(tent_file, capsys):
    assert main(["entropy", "pwl", "--file", tent_file, "--method", "variation"]) == 0
    out = capsys.readouterr().out
    assert "CERTIFIED" in out and "h in [1, 1]" in out


def test_pwl_horseshoe_stream(tent_file, capsys):
    code = main(
        ["entropy", "pwl", "--file", tent_file, "--method", "horseshoe", "--max-n", "3"]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    assert lines[0] == "p\tn\tbound_lo\tbound_hi"
    first = lines[1].split("\t")
    assert first[0] == "2" and first[1] == "2"
    assert parse_rational(first[2]) >= F(1, 2) - F(1, 1 << 20)


def test_pwl_horseshoe_interval_parameter_through_zero_entropy(tmp_path, capsys):
    # r = 7/2 lies in the enclosure and has entropy 0, so nothing may stream
    quad = write_json(tmp_path / "quad.json", {"r": ["7/2", "4/1"]})
    code = main(
        ["entropy", "pwl", "--file", quad, "--method", "horseshoe", "--max-n", "4"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines() == [
        "p\tn\tbound_lo\tbound_hi",
        "# no horseshoe found within budget (entropy may be 0)",
    ]


@pytest.mark.parametrize("cap", ["100", "0"])
def test_pwl_variation_node_cap_exit_2(skew_file, capsys, cap):
    # the variation method honours --node-cap; an overrun is an input error
    argv = ["entropy", "pwl", "--file", skew_file, "--method", "variation"]
    assert main(argv + ["--n-max", "12", "--node-cap", cap]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_pwl_horseshoe_node_cap_exit_3(tent_file, capsys, fmt):
    # tent^4 has 17 nodes, so a cap of 10 ends the stream after n = 3: the
    # records before it print as a --max-n 3 run prints them, and the exit
    # code and stderr tell the run apart from one that reached --max-n
    argv = ["--format", fmt, "entropy", "pwl", "--file", tent_file, "--method", "horseshoe"]
    assert main(argv + ["--max-n", "3"]) == 0
    want = capsys.readouterr()
    assert main(argv + ["--max-n", "9", "--node-cap", "10"]) == 3
    got = capsys.readouterr()
    assert got.out == want.out and want.err == ""
    assert got.err.startswith("note: ") and "n = 4" in got.err


# sha256 of the json stdout of ``--max-n 9`` on r = 4, recorded before
# --node-cap applied to quadratic maps
R4_MAX_N_9_SHA = "cb1cd5590f28f0e97cee5761504c85459c580b3a8afe1950e04efa43db04ade1"


def test_quad_horseshoe_node_cap_exit_3_fast(tmp_path, capsys):
    # at r = 4 the iterate f^n has 2^n + 1 breakpoints, so a cap of 1000 ends
    # the stream at n = 10, where uncapped --max-n 20 took 42 s: the records
    # before it print as a --max-n 9 run printed them
    path = write_json(tmp_path / "r4.json", {"r": "4"})
    argv = ["--format", "json", "entropy", "pwl", "--file", path, "--method", "horseshoe"]
    start = time.monotonic()
    assert main(argv + ["--max-n", "40", "--node-cap", "1000"]) == 3
    assert time.monotonic() - start < 5
    got = capsys.readouterr()
    assert hashlib.sha256(got.out.encode()).hexdigest() == R4_MAX_N_9_SHA
    assert got.err.startswith("note: ") and "1000 breakpoints at n = 10" in got.err


def test_quad_horseshoe_default_cap_exit_3(tmp_path, capsys):
    # by default a quadratic iterate is capped at 2^16 breakpoints, so r = 4
    # stops at n = 16; under the piecewise-linear default of 10^6 nodes it
    # ran every n up to 19
    path = write_json(tmp_path / "r4.json", {"r": "4"})
    start = time.monotonic()
    assert main(["entropy", "pwl", "--file", path, "--method", "horseshoe", "--max-n", "40"]) == 3
    assert time.monotonic() - start < 5
    assert "65536 breakpoints at n = 16" in capsys.readouterr().err


def test_pwl_horseshoe_grid_depth_cap_exit_2_fast(tent_file, capsys):
    # the grid fallback tries 2^(d-1) (2^d + 1) targets per iterate; depth 40
    # ran past a 20 s timeout before it was refused
    start = time.monotonic()
    argv = ["entropy", "pwl", "--file", tent_file, "--method", "horseshoe", "--max-n", "4"]
    assert main(argv + ["--grid-depth", "40"]) == 2
    assert time.monotonic() - start < 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("method", ["variation", "horseshoe"])
@pytest.mark.parametrize(
    "payload",
    [
        {"nodes": [[False, False], ["1/2", True], [True, False]]},
        {"nodes": [["0/1", "0/1"], ["1/2", True], ["1/1", "0/1"]]},
        {"r": [True, "4/1"]},
    ],
    ids=["bool-tent", "bool-peak", "bool-r"],
)
def test_pwl_file_bool_coordinates_exit_2(tmp_path, capsys, payload, method):
    # the tent map spelled with JSON booleans was read as the tent map and
    # certified with exit 0
    path = write_json(tmp_path / "m.json", payload)
    assert main(["entropy", "pwl", "--file", path, "--method", method]) == 2
    assert capsys.readouterr().err.startswith(f"error: malformed map file {path}")


def test_quad_map_json_integer_r(tmp_path, capsys):
    # a JSON integer r is the rational it spells, as the text "4" is; a
    # float or a boolean r is malformed input
    argv = ["--format", "json", "entropy", "pwl", "--method", "horseshoe", "--max-n", "4"]
    outs = []
    for name, r in (("int", 4), ("text", "4")):
        path = write_json(tmp_path / f"{name}.json", {"r": r})
        assert main(argv + ["--file", path]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] != ""
    for r in (3.5, True):
        path = write_json(tmp_path / "bad.json", {"r": r})
        assert main(argv + ["--file", path]) == 2
        assert capsys.readouterr().err.startswith(f"error: malformed map file {path}")


@pytest.mark.parametrize(
    "tail", ['{"type": "center", "period": 9, "r_', None], ids=["torn", "no-newline"]
)
def test_logistic_torn_cache_tail(tmp_path, capsys, tail):
    # an interrupted append leaves a final line without its newline
    clean, torn = tmp_path / "clean.jsonl", tmp_path / "torn.jsonl"
    assert main(["centers", "--max-period", "1", "--cache-path", str(clean)]) == 0
    text = clean.read_text(encoding="utf-8")
    torn.write_text(text[:-1] if tail is None else text + tail, encoding="utf-8")
    capsys.readouterr()
    outputs = []
    for path in (clean, torn):
        argv = ["--format", "json", "entropy", "logistic", "--r", "3.2", "--eps", "1/100",
                "--max-period", "2", "--cache-path", str(path)]
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    # the run appended period 2 after cutting the tail, so the files agree
    assert torn.read_bytes() == clean.read_bytes()
    assert [c.period for c in CenterCache(torn).centers] == [1, 2]


def test_empty_cache_file_gets_header(tmp_path, capsys):
    path = tmp_path / "c.jsonl"
    path.touch()
    assert main(["centers", "--max-period", "1", "--cache-path", str(path)]) == 0
    assert main(["centers", "--max-period", "2", "--cache-path", str(path)]) == 0
    header = json.dumps({"schema": logistic.CACHE_SCHEMA}) + "\n"
    assert path.read_text(encoding="utf-8").startswith(header)


@pytest.mark.parametrize(
    "line",
    [b'{"type": "cen', b'{"type": "center"}', b"[1, 2]", b'{"type": "cen\x01ter"}',
     b'{"type": "\xff"}', b'{"type": "centre", "period": 1, "r_enc": ["2/1", "2/1"]}', b"{}",
     b"null", b'{"type": "scan", "period": 1, "unresolved": []}'],
    ids=["json", "keys", "shape", "control", "utf-8", "centre", "empty", "null", "scan"],
)
def test_logistic_malformed_cache_line_exit_2(tmp_path, capsys, line):
    # a line that is not JSON, or not UTF-8, is named like any other
    # malformed record; it was reported by its column alone. Every line
    # after the header is a center record: one of another type, `{}` or
    # `null` was skipped unread
    path = tmp_path / "c.jsonl"
    assert main(["centers", "--max-period", "1", "--cache-path", str(path)]) == 0
    header, rest = path.read_bytes().split(b"\n", 1)
    path.write_bytes(header + b"\n" + line + b"\n" + rest)
    argv = ["entropy", "logistic", "--r", "3.2", "--eps", "1/100", "--cache-path", str(path)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: malformed line 2 in {path}")


@pytest.fixture(scope="module")
def period_5_lines(tmp_path_factory):
    path = tmp_path_factory.mktemp("p5") / "c.jsonl"
    enumerate_centers(5, cache=CenterCache(path))
    return path.read_text(encoding="utf-8").splitlines()


def _center_line(lines, pick):
    """The 1-based number of the center record that ``pick`` chooses by r_enc."""
    centers = {
        n: json.loads(line) for n, line in enumerate(lines, 1) if '"center"' in line
    }
    return pick(centers, key=lambda n: parse_rational(centers[n]["r_enc"][0]))


def _with(lines, number, **fields):
    lines = list(lines)
    lines[number - 1] = json.dumps({**json.loads(lines[number - 1]), **fields}, sort_keys=True)
    return "\n".join(lines) + "\n"


def _shifted(lines, number, by):
    """The r_enc of the record on line ``number``, both ends moved by ``by``."""
    return [format_rational(parse_rational(v) + by) for v in json.loads(lines[number - 1])["r_enc"]]


# r = 3.7 runs every period up to 5 (exit 3); its nearest center below is
# the period-4 one near 3.4986, and the period-5 one near 3.9903 is never
# the nearest on either side
_QUERY = ["--format", "json", "entropy", "logistic", "--r", "3.7", "--eps", "1e-6",
          "--max-period", "5", "--cache-path"]


def _nearest_below(centers, key):
    return max((n for n in centers if key(n) < F(37, 10)), key=key)


def test_logistic_malformed_bracketing_center_exit_2(tmp_path, capsys, period_5_lines):
    # a center is proved when the sandwich first reads it: moved by 1/1024,
    # its r_enc no longer holds a root of the closing condition
    number = _center_line(period_5_lines, _nearest_below)
    path = tmp_path / "c.jsonl"
    r_enc = _shifted(period_5_lines, number, F(1, 1024))
    path.write_text(_with(period_5_lines, number, r_enc=r_enc), encoding="utf-8")
    assert main(_QUERY + [str(path)]) == 2
    assert f"malformed line {number} in {path}" in capsys.readouterr().err


def test_malformed_far_center_read_only_by_centers(tmp_path, capsys, period_5_lines):
    # the sandwich never reads a center far from the query; `centers` lists
    # every center, so it proves that one too
    clean, bad = tmp_path / "clean.jsonl", tmp_path / "bad.jsonl"
    clean.write_text("\n".join(period_5_lines) + "\n", encoding="utf-8")
    number = _center_line(period_5_lines, max)
    r_enc = _shifted(period_5_lines, number, F(1, 1024))
    bad.write_text(_with(period_5_lines, number, r_enc=r_enc), encoding="utf-8")
    results = []
    for path in (clean, bad):
        code = main(_QUERY + [str(path)])
        results.append((code, capsys.readouterr().out))
    assert results[0][0] == 3
    assert results[1] == results[0]
    assert main(["centers", "--max-period", "5", "--cache-path", str(bad)]) == 2
    assert f"malformed line {number} in {bad}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [
        ("period", None),
        ("period", "x"),
        ("r_enc", ["x", "4/1"]),
        ("r_enc", "x"),
        ("r_enc", [True, "4/1"]),
    ],
    ids=["period-null", "period-text", "r_enc-text", "r_enc-shape", "r_enc-bool"],
)
def test_malformed_period_or_r_enc_exit_2_at_load(tmp_path, capsys, period_5_lines, field, value):
    # period and r_enc are parsed at load, even on a center no query reads
    number = _center_line(period_5_lines, max)
    path = tmp_path / "c.jsonl"
    path.write_text(_with(period_5_lines, number, **{field: value}), encoding="utf-8")
    assert main(_QUERY + [str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert main(["centers", "--max-period", "5", "--cache-path", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "where", ["r_enc", "map-node", "quad-r"]
)
def test_zero_denominator_exit_2(tmp_path, capsys, period_5_lines, where):
    # "p/0" escaped as ZeroDivisionError, a traceback and exit 1
    if where in ("map-node", "quad-r"):
        payload = {"nodes": [["0/1", "0/1"], ["1/2", "1/0"], ["1/1", "0/1"]]}
        path = write_json(tmp_path / "m.json", payload if where == "map-node" else {"r": "1/0"})
        assert main(["entropy", "pwl", "--file", path, "--method", "horseshoe"]) == 2
        assert capsys.readouterr().err.startswith(f"error: malformed map file {path}")
        return
    number = _center_line(period_5_lines, max)
    path = tmp_path / "c.jsonl"
    path.write_text(_with(period_5_lines, number, r_enc=["1/0", "4/1"]), encoding="utf-8")
    assert main(["centers", "--max-period", "5", "--cache-path", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: malformed line {number} in {path}")


def test_repeated_center_record_skipped_unread(tmp_path, capsys, period_5_lines):
    # a record with an earlier center's period and r_enc, even spelled
    # otherwise, is skipped unread: output and appended lines are as without it
    number = _center_line(period_5_lines, max)
    base = "\n".join(period_5_lines) + "\n"
    lo, hi = (parse_rational(v) for v in json.loads(period_5_lines[number - 1])["r_enc"])
    unreduced = [f"{2 * q.numerator}/{2 * q.denominator}" for q in (lo, hi)]
    copy = _with(period_5_lines, number, r_enc=unreduced).splitlines()[number - 1]
    texts = (base, base + copy + "\n")
    results = []
    for name, text in zip(("clean", "repeated"), texts):
        path = tmp_path / f"{name}.jsonl"
        path.write_text(text, encoding="utf-8")
        code = main(["--format", "json", "centers", "--max-period", "6", "--cache-path", str(path)])
        appended = path.read_text(encoding="utf-8")[len(text):]
        results.append((code, capsys.readouterr().out, appended))
    assert results[0][0] == 0 and results[0][2]
    assert results[1] == results[0]


@pytest.fixture(scope="module")
def period_9_path(tmp_path_factory):
    # a query up to period 9 reads this cache and never writes to it
    path = tmp_path_factory.mktemp("p9") / "c.jsonl"
    enumerate_centers(9, cache=CenterCache(path))
    return path


def test_sandwich_parses_only_bracketing_centers(period_9_path, capsys, monkeypatch):
    # at most the two bracketing centers of each period are proved, and
    # their SFTs rebuilt, of the 66 that a period-9 cache holds
    path = period_9_path
    rebuild = logistic._transitions
    calls = []

    def counted(ranks):
        calls.append(ranks)
        return rebuild(ranks)

    monkeypatch.setattr(logistic, "_transitions", counted)
    argv = ["entropy", "logistic", "--r", "3.7", "--eps", "1/128", "--max-period", "9"]
    assert main(argv + ["--cache-path", str(path)]) == 3
    assert 0 < len(calls) <= 2 * 9


def test_sandwich_builds_intervals_only_for_bracketing_centers(period_9_path, capsys, monkeypatch):
    # a stored center's r_enc stays integers: the bracketing centers are
    # picked and proved from their integer ends, and no RatInterval is built
    # from any stored r_enc. Every one of the 66 was built at load, and later
    # one for each proof of a bracketing center
    stored = set()
    for line in period_9_path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record.get("type") == "center":
            stored.add(tuple(parse_rational(v) for v in record["r_enc"]))
    check = RatInterval.__post_init__
    built = []

    def counted(self):
        check(self)
        built.append((self.lo, self.hi))

    monkeypatch.setattr(RatInterval, "__post_init__", counted)
    argv = ["entropy", "logistic", "--r", "3.7", "--eps", "1/128", "--max-period", "9"]
    assert main(argv + ["--cache-path", str(period_9_path)]) == 3
    assert sum(ends in stored for ends in built) == 0


def test_sandwich_refines_each_center_once(period_9_path, capsys, monkeypatch):
    # the nearest center on a side stays the same over several periods; its
    # entropy is computed once
    refine = logistic.sft_entropy
    sfts = []

    def counted(sft, eps):
        sfts.append(sft)
        return refine(sft, eps)

    monkeypatch.setattr(logistic, "sft_entropy", counted)
    argv = ["entropy", "logistic", "--r", "3.7", "--eps", f"1/{2**38}", "--max-period", "9"]
    assert main(argv + ["--cache-path", str(period_9_path)]) == 3
    assert 0 < len(sfts) == len(set(sfts))


def test_identity_both_methods(tmp_path, capsys):
    ident = write_json(tmp_path / "id.json", {"nodes": [["0/1", "0/1"], ["1/1", "1/1"]]})
    assert main(["entropy", "pwl", "--file", ident, "--method", "variation"]) == 0
    assert "h in [0, 0]" in capsys.readouterr().out
    assert main(["entropy", "pwl", "--file", ident, "--method", "horseshoe"]) == 0
    assert "no horseshoe" in capsys.readouterr().out


@pytest.mark.parametrize(
    "payload", ["nodes", ["nodes"], "r", 42], ids=["text", "list", "r", "number"]
)
def test_non_object_file_exit_2(tmp_path, capsys, payload):
    # "nodes" in a JSON string or list held, and from_json then crashed
    path = write_json(tmp_path / "m.json", payload)
    assert main(["entropy", "pwl", "--file", path, "--method", "variation"]) == 2
    assert capsys.readouterr().err.startswith(f"error: malformed map file {path}")
    assert main(["sft", "entropy", "--file", path]) == 2
    assert capsys.readouterr().err.startswith(f"error: malformed subshift file {path}")


_HUGE = "1e999999999"


@pytest.mark.parametrize("where", ["r", "eps", "h", "map-node", "quad-r", "cached-r_enc"])
def test_huge_decimal_exponent_exit_2_fast(tmp_path, capsys, where):
    # Fraction builds 10**|e| exactly: each of these hung before it was refused
    path = tmp_path / "input.json"
    cache = tmp_path / "c.jsonl"
    argv = {
        "r": ["entropy", "logistic", "--r", _HUGE, "--eps", "1/32"],
        "eps": ["entropy", "logistic", "--r", "3.5", "--eps", "1e-999999999"],
        "h": ["realize", "--h", _HUGE, "--out", str(path)],
        "map-node": ["entropy", "pwl", "--file", str(path), "--method", "variation"],
        "quad-r": ["entropy", "pwl", "--file", str(path), "--method", "horseshoe"],
        "cached-r_enc": ["entropy", "logistic", "--r", "3.5", "--eps", "1/32",
                         "--cache-path", str(cache)],
    }[where]
    if where == "map-node":
        write_json(path, {"nodes": [["0", "0"], ["1/2", _HUGE], ["1", "0"]]})
    if where == "quad-r":
        write_json(path, {"r": _HUGE})
    record = {"type": "center", "period": 1, "r_enc": [_HUGE, _HUGE]}
    header = {"schema": logistic.CACHE_SCHEMA}
    cache.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n", encoding="utf-8")
    start = time.monotonic()
    assert main(argv) == 2
    assert time.monotonic() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "decimal exponent" in err


def test_malformed_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["entropy", "pwl", "--file", str(bad), "--method", "variation"]) == 2
    missing = str(tmp_path / "missing.json")
    assert main(["entropy", "pwl", "--file", missing, "--method", "variation"]) == 2
    assert main(["entropy", "logistic", "--r", "nope", "--eps", "1e-3"]) == 2


@pytest.mark.parametrize("flag", ["--eps", "--max-period", "--budget-seconds"])
def test_logistic_nonpositive_option_exit_2(tmp_path, capsys, flag):
    argv = ["entropy", "logistic", "--r", "3.5", "--eps", "1/32"]
    argv += [flag, "0", "--cache-path", str(tmp_path / "c.jsonl")]
    assert main(argv) == 2
    assert "must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "Infinity"])
def test_logistic_non_finite_budget_exit_2(tmp_path, capsys, value):
    # NaN fails every comparison, so a NaN deadline would never be passed
    argv = ["entropy", "logistic", "--r", "3.2", "--eps", "1/100", "--budget-seconds", value,
            "--cache-path", str(tmp_path / "c.jsonl")]
    assert main(argv) == 2
    assert "--budget-seconds must be positive and finite" in capsys.readouterr().err


# MAP stands for a piecewise-linear map file, OUT for a path that must stay unwritten
_PWL_VARIATION = ["entropy", "pwl", "--file", "MAP", "--method", "variation"]


def _fill(argv, map_file, out):
    return [map_file if a == "MAP" else str(out) if a == "OUT" else a for a in argv]


@pytest.mark.parametrize(
    "argv",
    [
        ["entropy", "logistic", "--r", "3.7", "--eps", "1e-309", "--cache-path", "OUT"],
        ["centers", "--max-period", "1", "--eps", "1e-309", "--cache-path", "OUT"],
        ["realize", "--h", "0.6", "--bits", "1025", "--out", "OUT"],
        _PWL_VARIATION + ["--bits", "1025"],
    ],
    ids=["logistic-eps", "centers-eps", "realize-bits", "pwl-bits"],
)
def test_precision_beyond_cap_exit_2(tmp_path, capsys, skew_file, argv):
    # finer than 2^-1024 is refused before any Perron bracket runs or any
    # file is written
    out = tmp_path / "out"
    assert main(_fill(argv, skew_file, out)) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("bits", ["0", "-3"])
@pytest.mark.parametrize(
    "argv",
    [["realize", "--h", "0.6", "--out", "OUT"], _PWL_VARIATION],
    ids=["realize", "pwl"],
)
def test_nonpositive_bits_exit_2(tmp_path, capsys, skew_file, argv, bits):
    out = tmp_path / "out"
    assert main(_fill(argv, skew_file, out) + ["--bits", bits]) == 2
    assert "must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_sft_precision_beyond_cap_exit_2(golden_file, capsys):
    # the Perron bracket alone obeys the same 2^-1024 cap
    assert main(["sft", "entropy", "--file", golden_file, "--eps", "1e-400"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("eps", ["1e400", "5"])
def test_sft_coarse_eps_chord_cycle(tmp_path, capsys, eps):
    # rel_gap >= 1: the first exact power step already stops, so no float
    # ever sees rel_gap, and 1e400 cannot overflow one
    allowed = [[int(j == (i + 1) % 24 or (i, j) == (23, 15)) for j in range(24)] for i in range(24)]
    path = write_json(tmp_path / "chord.json", {"alphabet": 24, "allowed": allowed})
    assert main(["sft", "entropy", "--file", path, "--eps", eps]) == 0
    assert capsys.readouterr().out == "h in [0, 1]\n  ~ [0.000000000000, 1.000000000000]\n"


def test_centers_beyond_period_cap_exit_2(tmp_path, capsys):
    # refused before any period is scanned
    argv = ["centers", "--max-period", str(DEFAULT_PERIOD_CAP + 1)]
    assert main(argv + ["--cache-path", str(tmp_path / "c.jsonl")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "c.jsonl").exists()


def test_logistic_beyond_period_cap_exit_2(tmp_path, capsys):
    # the sandwich obeys the same cap, before any scan, even at a query that
    # periods 1 and 2 alone would settle
    argv = ["entropy", "logistic", "--r", "3.2", "--eps", "1/100"]
    argv += ["--max-period", str(DEFAULT_PERIOD_CAP + 1), "--cache-path", str(tmp_path / "c.jsonl")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "c.jsonl").exists()


def test_logistic_precision_at_cap(tmp_path, capsys):
    argv = ["entropy", "logistic", "--r", "3.2", "--eps", f"1/{2**1024}"]
    assert main(argv + ["--max-period", "4", "--cache-path", str(tmp_path / "c.jsonl")]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["centers", "--max-period", "2", "--cache-path", "{dir}"],  # IsADirectoryError
        ["centers", "--max-period", "2", "--cache-path", "{file}/c.jsonl"],  # FileExistsError
        ["realize", "--h", "1/2", "--out", "{dir}"],  # IsADirectoryError
    ],
    ids=["cache-is-a-directory", "cache-under-a-file", "out-is-a-directory"],
)
def test_os_error_on_a_named_path_exit_2(tmp_path, run, argv):
    # each raised its OSError as a traceback, with exit 1
    (tmp_path / "file").write_text("", encoding="utf-8")
    argv = [a.format(dir=tmp_path, file=tmp_path / "file") for a in argv]
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as err:
        main(["entropy", "logistic"])  # missing required flags
    assert err.value.code == 2


def test_realize_round_trip(tmp_path, capsys):
    out_path = tmp_path / "m.json"
    assert main(["realize", "--h", "0.5849625", "--out", str(out_path)]) == 0
    capsys.readouterr()
    assert main(["entropy", "pwl", "--file", str(out_path), "--method", "variation"]) == 0
    out = capsys.readouterr().out
    assert "CERTIFIED" in out
    low = out.split("[")[1].split(",")[0]
    assert abs(float(F(low.strip().replace("]", "").split("/")[0]) /
                     F(low.strip().split("/")[1])) - 0.5849625) < 1e-6


def test_sft_commands(golden_file, capsys):
    assert main(["sft", "entropy", "--file", golden_file, "--eps", "1e-9"]) == 0
    out = capsys.readouterr().out
    assert "0.694241913" in out
    assert main(["sft", "mixing", "--file", golden_file]) == 0
    assert capsys.readouterr().out.strip() == "MIXING"
    assert main(["sft", "kappa", "encode", "--file", golden_file, "--word", "010"]) == 0
    assert capsys.readouterr().out.strip() == "01"
    assert main(["sft", "kappa", "decode", "--file", golden_file, "--word", "01"]) == 0
    assert capsys.readouterr().out.strip() == "01"
    assert main(["sft", "kappa", "encode", "--file", golden_file, "--word", "011"]) == 2


@pytest.mark.parametrize(
    "payload",
    [
        {"allowed": [[1.9, 1], [1, 0.5]]},
        {"allowed": [[1.0, 1], [1, 0]]},
        {"allowed": [["1", "1"], ["1", "0"]]},
        {"allowed": [[True, True], [True, False]]},
        {"alphabet": 2.7, "allowed": [[1, 1], [1, 0]]},
        {"alphabet": "2", "allowed": [[1, 1], [1, 0]]},
    ],
    ids=["floats", "float-one", "strings", "bools", "float-alphabet", "text-alphabet"],
)
def test_sft_file_non_integer_entries_exit_2(tmp_path, capsys, payload):
    # each of these once read as the golden mean and was certified
    path = write_json(tmp_path / "z.json", payload)
    assert main(["sft", "entropy", "--file", path, "--eps", "1e-6"]) == 2
    assert capsys.readouterr().err.startswith(f"error: malformed subshift file {path}")


@pytest.mark.parametrize("record", ["center"])
@pytest.mark.parametrize(
    "value", [True, "5", 5.0, 7.9, 0, -3], ids=["true", "text", "float", "fraction", "zero", "negative"]
)
def test_cached_period_not_positive_int_malformed_line(tmp_path, capsys, period_5_lines, record, value):
    # a period is a JSON integer >= 1; `true` is not read as 1, nor "5" as 5,
    # so no record silently moves to another period or drops out of one
    number = max(
        n for n, line in enumerate(period_5_lines, 1)
        if f'"{record}"' in line and '"period": 5' in line
    )
    path = tmp_path / "c.jsonl"
    path.write_text(_with(period_5_lines, number, period=value), encoding="utf-8")
    for argv in (_QUERY + [str(path)], ["centers", "--max-period", "5", "--cache-path", str(path)]):
        assert main(argv) == 2
        assert f"malformed line {number} in {path}" in capsys.readouterr().err


def test_cache_schema_header_message(tmp_path, capsys):
    path = tmp_path / "c.jsonl"
    path.write_text('{"schema": 999}\n', encoding="utf-8")
    assert main(["centers", "--max-period", "1", "--cache-path", str(path)]) == 2
    assert capsys.readouterr().err.strip() == f"error: unsupported cache schema in {path}"


def test_centers_table_and_cache_idempotence(tmp_path, capsys, session_cache):
    args = [
        "centers", "--max-period", "3", "--cache-path", str(session_cache.path),
    ]
    assert main(args) == 0
    out1 = capsys.readouterr().out
    assert out1.splitlines()[0] == "period\tr_lo\tr_hi\tentropy_lo\tentropy_hi"
    assert len([l for l in out1.splitlines() if l and not l.startswith(("#", "period"))]) == 3
    size_before = session_cache.path.read_text().count("\n")
    assert main(args) == 0
    assert session_cache.path.read_text().count("\n") == size_before


def test_json_output_deterministic(golden_file, capsys):
    assert main(["--format", "json", "sft", "entropy", "--file", golden_file]) == 0
    out1 = capsys.readouterr().out
    assert main(["--format", "json", "sft", "entropy", "--file", golden_file]) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    payload = json.loads(out1)
    assert set(payload) == {"eps", "h"}


def test_period_scan_reads_no_stored_center(tmp_path):
    # on an empty cache, the period-4 scan tells the period-2 root
    # 1 + sqrt(5) apart by its own orbit, with no period-2 center stored
    cache = CenterCache(tmp_path / "c.jsonl")
    found, unresolved = logistic._complete_period(4, cache)
    assert unresolved == []
    assert [c.period for c in cache.centers] == [4, 4]
    mids = [float((c.r_enc.lo + c.r_enc.hi) / 2) for c in found]
    assert mids == pytest.approx([3.4985616, 3.9602701], abs=1e-6)


def test_centers_rescans_period_missing_a_record(tmp_path, capsys):
    # with the one period-3 record deleted, the file holds fewer period-3
    # centers than the count, so the period is scanned again
    path = tmp_path / "c.jsonl"
    argv = ["--format", "json", "centers", "--max-period", "3", "--cache-path", str(path)]
    assert main(argv) == 0
    clean = capsys.readouterr().out
    lines = path.read_text(encoding="utf-8").splitlines()
    number = _center_line(lines, max)  # the period-3 center
    del lines[number - 1]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == clean
    assert len(json.loads(out)["centers"]) == 3
    assert path.read_text(encoding="utf-8").count('"type": "center"') == 3


def test_centers_extra_record_exit_2(tmp_path, capsys):
    # a forged record beside the true one: more centers than period 3 has
    path = tmp_path / "c.jsonl"
    assert main(["centers", "--max-period", "3", "--cache-path", str(path)]) == 0
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[_center_line(lines, max) - 1])
    record["r_enc"] = [format_rational(parse_rational(v) - F(1, 1024)) for v in record["r_enc"]]
    path.write_text("\n".join(lines + [json.dumps(record, sort_keys=True)]) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["centers", "--max-period", "3", "--cache-path", str(path)]) == 2
    assert "holds 2 centers of period 3, but there are 1" in capsys.readouterr().err


def test_logistic_extra_record_exit_2(tmp_path, capsys):
    # the sandwich reads each period as `centers` does: a forged period-3
    # record just below 3.84, beside the true one, is refused by the count
    # before any center is proved
    path = tmp_path / "c.jsonl"
    assert main(["centers", "--max-period", "3", "--cache-path", str(path)]) == 0
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[_center_line(lines, max) - 1])
    record["r_enc"] = ["3839/1000", "3839/1000"]
    path.write_text("\n".join(lines + [json.dumps(record, sort_keys=True)]) + "\n", encoding="utf-8")
    capsys.readouterr()
    argv = ["--format", "json", "entropy", "logistic", "--r", "3.84", "--eps", "1/4",
            "--max-period", "3", "--cache-path", str(path)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: the center cache holds 2 centers of period 3, but there are 1\n")


@pytest.fixture
def run(capsys):
    """A CLI call that returns its exit code, stdout and stderr."""
    capsys.readouterr()

    def call(argv):
        code = main(argv)
        return (code, *capsys.readouterr())

    return call


def _center_lines(path):
    """The numbers and records of the center lines of a cache file."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines, {n: json.loads(line) for n, line in enumerate(lines, 1) if '"center"' in line}


def test_forged_entropies_are_not_read(tmp_path, run):
    # every record given an entropy of 1/1000: no stored number but r_enc is
    # read, so both commands print what they print on an empty cache. The
    # sandwich once certified h = [1/1000, 1/1000] at 3.84, where h is
    # log2 of the golden ratio
    query = ["--format", "json", "entropy", "logistic", "--r", "3.84", "--eps", "1/32",
             "--max-period", "7", "--cache-path"]
    listing = ["--format", "json", "centers", "--max-period", "7", "--cache-path"]
    empty = [run(query + [str(tmp_path / "q.jsonl")]), run(listing + [str(tmp_path / "c.jsonl")])]
    path = tmp_path / "forged.jsonl"
    assert run(listing + [str(path)])[0] == 0
    lines, records = _center_lines(path)
    forged = {"lo": "1/1000", "hi": "1/1000", "provenance": "SFT", "certified": True}
    for number, record in records.items():
        lines[number - 1] = json.dumps({**record, "entropy": forged}, sort_keys=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert [run(query + [str(path)]), run(listing + [str(path)])] == empty
    assert empty[0][0] == 0 and empty[1][0] == 0


def test_moved_center_exit_2(tmp_path, run):
    # the period-3 record moved just below the query keeps the count; the
    # sandwich picks it, and its proof fails: no root of the closing
    # condition at 3839/1000. It was used, and the query exited 3
    path = tmp_path / "c.jsonl"
    assert run(["centers", "--max-period", "3", "--cache-path", str(path)])[0] == 0
    lines = path.read_text(encoding="utf-8").splitlines()
    number = _center_line(lines, max)
    path.write_text(_with(lines, number, r_enc=["3839/1000", "3839/1000"]), encoding="utf-8")
    argv = ["--format", "json", "entropy", "logistic", "--r", "3.84", "--eps", "1/4",
            "--max-period", "3", "--cache-path", str(path)]
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: malformed line {number} in {path}")


def test_long_r_enc_end_exit_2_at_once(tmp_path, run):
    # a period-12 record whose upper end lies 3^-2096 above its center's
    # cell refined to 2^-130: a 1 000-digit denominator where the orbit
    # enclosure straddles 1/2, so its proof would fall back to the exact
    # sign, whose integers grow like the denominator to the power 2^12. It
    # took about 7 s; the end is refused at load
    path = tmp_path / "c.jsonl"
    argv = ["centers", "--max-period", "12", "--cache-path", str(path)]
    assert run(argv)[0] == 0
    lines, records = _center_lines(path)
    number = min(n for n in records if records[n]["period"] == 12)
    cell = RatInterval.from_json(records[number]["r_enc"])
    deep = refine_root(critical_orbit_expr(12), cell, F(1, 1 << 130))
    r_enc = [format_rational(deep.lo), format_rational(deep.hi + F(1, 3**2096))]
    path.write_text(_with(lines, number, r_enc=r_enc), encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith(f"error: malformed line {number} in {path}")


def test_deepest_refinement_end_loads(tmp_path, run):
    # the period-3 cell refined as far as earlier writers of this cache
    # schema refined one: to a quarter of its width while it was wider than
    # 2^-300, which leaves ends of 328-bit denominators. Such a file loaded;
    # now that the only writer is the scan, whose ends have at most 52 bits,
    # the record is malformed at load
    path = tmp_path / "c.jsonl"
    argv = ["--format", "json", "centers", "--max-period", "3", "--cache-path", str(path)]
    assert run(argv)[0] == 0
    lines, records = _center_lines(path)
    [number] = [n for n in records if records[n]["period"] == 3]
    cell = RatInterval.from_json(records[number]["r_enc"])
    deep = refine_root(critical_orbit_expr(3), cell, cell.width / (1 << 276))
    assert deep.width <= F(1, 1 << 300) < 4 * deep.width
    assert max(deep.lo.denominator, deep.hi.denominator).bit_length() == 328
    path.write_text(_with(lines, number, r_enc=deep.to_json()), encoding="utf-8")
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: malformed line {number} in {path}")


def _tight_ends(lo, hi, period, bits):
    """Ends k/2^bits and (k + 1)/2^bits around the root of f^period(1/2) - 1/2
    in [lo, hi], a cell whose closing condition changes sign: bisection on
    signs read in fixed point at 2*bits + 64 bits, whose error stays far
    below the value at any point 2^-bits or more from the root."""
    w = 2 * bits + 64
    half = 1 << (w - 1)

    def sign(k):
        x = half
        for _ in range(period):
            x = (k * x * ((1 << w) - x)) >> (w + bits)
        return (x > half) - (x < half)

    a, b = int(lo * (1 << bits)), int(hi * (1 << bits))
    s_a = sign(a)
    assert s_a * sign(b) < 0
    while b - a > 1:
        m = (a + b) >> 1
        if sign(m) == s_a:
            a = m
        else:
            b = m
    return [format_rational(F(a, 1 << bits)), format_rational(F(b, 1 << bits))]


def test_tight_long_r_enc_ends_exit_2_at_once(tmp_path, run):
    # a period-12 record with ends 2^-379 apart around its center, of 380-bit
    # denominators: the orbit enclosure straddles 1/2 at both, so its proof
    # falls back to the exact sign, whose integers grow like the denominator
    # to the power 2^12. Such ends loaded and were proved, with exit 0 (the
    # limit was 384 bits); the end is refused at load
    path = tmp_path / "c.jsonl"
    argv = ["centers", "--max-period", "12", "--cache-path", str(path)]
    assert run(argv)[0] == 0
    lines, records = _center_lines(path)
    number = min(n for n in records if records[n]["period"] == 12)
    lo, hi = map(parse_rational, records[number]["r_enc"])
    r_enc = _tight_ends(lo, hi, 12, 379)
    assert max(parse_rational(v).denominator for v in r_enc).bit_length() == 380
    path.write_text(_with(lines, number, r_enc=r_enc), encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith(f"error: malformed line {number} in {path}")


def _period_5(path, run):
    """The lines of a fresh period-5 cache and the numbers of its period-5
    records, in r_enc order."""
    assert run(["centers", "--max-period", "5", "--cache-path", str(path)])[0] == 0
    lines, records = _center_lines(path)
    fives = [n for n in records if records[n]["period"] == 5]
    return lines, sorted(fives, key=lambda n: parse_rational(records[n]["r_enc"][0]))


def test_widened_center_exit_2(tmp_path, run):
    # a period-5 r_enc widened onto its neighbour's: `centers` listed both,
    # the neighbour twice over, and exited 0
    path = tmp_path / "c.jsonl"
    lines, (first, second, _) = _period_5(path, run)
    lo = json.loads(lines[first - 1])["r_enc"][0]
    hi = json.loads(lines[second - 1])["r_enc"][1]
    path.write_text(_with(lines, first, r_enc=[lo, hi]), encoding="utf-8")
    code, out, err = run(["--format", "json", "centers", "--max-period", "5", "--cache-path", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_overlapping_centers_exit_2(tmp_path, run):
    # one period-5 record replaced by a wider enclosure of another center:
    # each record proves a center and the count holds, but two records hold
    # the same center, and a third center is missing from the list
    path = tmp_path / "c.jsonl"
    lines, (first, second, _) = _period_5(path, run)
    r_enc = json.loads(lines[first - 1])["r_enc"]
    wider = [format_rational(parse_rational(r_enc[0]) - F(1, 2**40)), r_enc[1]]
    path.write_text(_with(lines, second, r_enc=wider), encoding="utf-8")
    code, out, err = run(["--format", "json", "centers", "--max-period", "5", "--cache-path", str(path)])
    assert (code, out) == (2, "")
    assert err == "error: the center cache holds overlapping centers of period 5\n"


def test_centers_output_does_not_depend_on_cache_builder(tmp_path, run):
    # the file holds where the centers are and nothing else, so `centers`
    # prints the same on a cache the sandwich built, one `centers --eps
    # 1/1000` built, and an empty one
    listing = ["--format", "json", "centers", "--max-period", "8", "--cache-path"]
    sandwich = tmp_path / "sandwich.jsonl"
    coarse = tmp_path / "coarse.jsonl"
    query = ["entropy", "logistic", "--r", "3.7", "--eps", "1/256", "--max-period", "8"]
    assert run(query + ["--cache-path", str(sandwich)])[0] == 3  # every period scanned
    assert run(["centers", "--max-period", "8", "--eps", "1/1000", "--cache-path", str(coarse)])[0] == 0
    assert sandwich.read_bytes() == coarse.read_bytes()
    outputs = [run(listing + [str(path)]) for path in (sandwich, coarse, tmp_path / "empty.jsonl")]
    assert outputs[0][0] == 0
    assert outputs[0] == outputs[1] == outputs[2]


def test_logistic_library_matches_cli(tmp_path, capsys):
    # one center precision, min(2^-24, eps/4): the library returns the
    # enclosure the CLI prints, and both write the same cache file
    cli_path, lib_path = tmp_path / "cli.jsonl", tmp_path / "lib.jsonl"
    argv = ["--format", "json", "entropy", "logistic", "--r", "3.7", "--eps", "1/32",
            "--max-period", "6", "--cache-path", str(cli_path)]
    code = main(argv)
    printed = json.loads(capsys.readouterr().out)["h"]
    try:
        bound = logistic.logistic_entropy(
            F(37, 10), F(1, 32), logistic.SandwichBudget(max_period=6), cache=lib_path
        )
    except logistic.BudgetExceeded as exc:
        assert code == 3
        bound = exc.best
    assert printed == [format_rational(bound.lo), format_rational(bound.hi)]
    assert cli_path.read_bytes() == lib_path.read_bytes()


def test_cache_path_ignores_environment(tmp_path, capsys, monkeypatch):
    # the cache comes from --cache-path alone; ENTROLAB_CACHE once overrode it
    env = tmp_path / "env.jsonl"
    monkeypatch.setenv("ENTROLAB_CACHE", str(env))
    path = tmp_path / "c.jsonl"
    query = ["entropy", "logistic", "--r", "3.2", "--eps", "1/100", "--max-period", "2"]
    assert main(["centers", "--max-period", "2", "--cache-path", str(path)]) == 0
    assert main(query + ["--cache-path", str(path)]) == 0
    assert main(query) == 0
    assert path.exists() and not env.exists()


def test_short_period_lists_its_unresolved_cell(tmp_path, capsys, monkeypatch):
    # a period-5 scan that cannot certify the root near 3.9903 leaves its
    # cell unresolved and the period one center short: the cell is listed
    # with exit 0, and a rerun scans the period again and lists it again
    prove = logistic._prove
    failed = []

    def prove_or_fail(period, ends):
        r_enc = RatInterval(F(*ends[:2]), F(*ends[2:]))
        if period == 5 and r_enc.lo > F(398, 100):
            failed.append(r_enc)
            raise ValueError("forced")
        return prove(period, ends)

    monkeypatch.setattr(logistic, "_prove", prove_or_fail)
    path = tmp_path / "c.jsonl"
    argv = ["--format", "json", "centers", "--max-period", "5", "--cache-path", str(path)]
    for run in (1, 2):
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(failed) == run
        assert payload["unresolved"] == [failed[0].to_json()]
        assert [c["period"] for c in payload["centers"]].count(5) == 2
    assert [c.period for c in CenterCache(path).centers].count(5) == 2


@pytest.mark.parametrize(
    "header", ["", "null", '{"schema": 3}', '{"schema": 4}'], ids=["blank", "null", "schema-3", "schema-4"]
)
def test_cache_first_line_not_the_header_exit_2(tmp_path, capsys, header):
    path = tmp_path / "c.jsonl"
    argv = ["centers", "--max-period", "3", "--cache-path", str(path)]
    assert main(argv) == 0
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join([header] + lines[1:]) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err.strip() == f"error: unsupported cache schema in {path}"


@pytest.mark.parametrize("state", ["cold", "warm"])
def test_centers_eps_zero_exit_2(tmp_path, capsys, state):
    # eps 0 was once accepted on a warm period-2 cache, whose stored
    # exact-zero entropies have width <= 0, and refused on an empty one
    path = tmp_path / "c.jsonl"
    if state == "warm":
        assert main(["centers", "--max-period", "2", "--cache-path", str(path)]) == 0
    before = path.read_bytes() if path.exists() else None
    capsys.readouterr()
    assert main(["centers", "--max-period", "2", "--eps", "0", "--cache-path", str(path)]) == 2
    assert capsys.readouterr().err == "error: eps must be positive\n"
    assert (path.read_bytes() if path.exists() else None) == before
