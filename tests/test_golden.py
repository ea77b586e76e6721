"""Byte-identical JSON output on a fixed set of CLI calls.

Each call runs ``cli.main(["--format", "json", ...])`` in process, on a
center cache built fresh by ``centers --max-period 6``, or by the same call
with ``--eps 1/1000``, which writes the same file, since a record holds
only a center's period and r_enc, or on a map file written by ``realize``
or by the test itself; ``centers --max-period 10`` also runs
alone on a fresh cache, and ``centers --max-period 11`` on a copy of that
cache, so it adds only the period-11 scan; ``centers --max-period 12``, the
period cap, runs alone on a fresh cache. ``entropy logistic --max-period
9`` runs on a period-9 cache, the shape of the benchmark's warm sandwich,
where each query reads only a few of the 66 stored centers. The SHA-256 of
every stdout, and of the cache file, must match the recorded digest. A
change that moves any of them has changed what entrolab prints; if that is
intended it bumps the cache schema or says so in CHANGES.md, and the
digests here are re-recorded.
"""

import contextlib
import hashlib
import io
import json

import pytest

from entrolab.cli import main

TENT = {"nodes": [["0/1", "0/1"], ["1/2", "1/1"], ["1/1", "0/1"]]}
SKEW_TENT = {"nodes": [["0/1", "0/1"], ["1/4", "1/1"], ["1/1", "0/1"]]}
FULL_LOGISTIC = {"r": "4/1"}
# a flat segment between a rise and a fall, and slopes of different sizes
PLATEAU = {"nodes": [["0", "0"], ["1/4", "1"], ["1/2", "1"], ["3/4", "1/8"], ["1", "2/3"]]}
GOLDEN_MEAN = {"alphabet": 2, "allowed": [[1, 1], [1, 0]]}
# with GOLDEN_MEAN, the three subshifts that sft kappa admits
MIRRORED_GOLDEN_MEAN = {"alphabet": 2, "allowed": [[0, 1], [1, 1]]}
FULL_SHIFT = {"alphabet": 2, "allowed": [[1, 1], [1, 1]]}
# the 24-cycle with the chord 23 -> 15: a small spectral gap, 437 plain power
# steps at eps 1e-9, so the Perron bracket leaves its exact prefix
CHORD_24 = {
    "alphabet": 24,
    "allowed": [[int(j == (i + 1) % 24 or (i, j) == (23, 15)) for j in range(24)] for i in range(24)],
}
# the 60-cycle with the chord 0 -> 2: a smaller gap still, where the plain
# power loop took about 8 000 steps; its output is
# h = ["1127907/67108864", "281977/16777216"]
CHORD_60 = {
    "alphabet": 60,
    "allowed": [[int(j == (i + 1) % 60 or (i, j) == (0, 2)) for j in range(60)] for i in range(60)],
}
DENSE_12 = {
    "alphabet": 12,
    "allowed": [[int(c) for c in row] for row in (
        "100111100000", "111010101101", "100100111101", "011011011100",
        "001100111000", "101011101010", "111011111010", "101100110111",
        "100001100010", "101001101000", "011100101110", "000001000011",
    )],
}

CENTERS_STDOUT = "26e3fd0065ce02420cb4f50587d7010cd1935da1f9d1afd229de06f06bc62a80"
CENTERS_CACHE = "e181c73eebb6636cea98becfca849ca6d905044d73d59ec358af5dceb9cf6043"

# (r, eps, exit code, stdout digest) on the period-6 cache
LOGISTIC = [
    ("3.84", "1/100", 0, "52e662863f69362cdc4548e683cde18d7569946318a83f3fa8e06f7b38847979"),
    ("3.2", "1/100", 0, "d7559d8b802ad6b461c3b7f8a24d6eb0fc23638132efdf87e0c805582a62dd68"),
    ("7/2", "1/32", 3, "61f65eda718e506d423ee8e4364563c5d75239642119dd2f6e1f509d2a3a307c"),
    ("3.83", "1/32", 3, "04ba79773dfdbe1c5df7e918769ea5e8f5f0b0fcb1e49518fc60c8e61df39745"),
    ("3.99", "1e-6", 3, "a0c5bb3fe460ccef3d8fb8a18371a453f4e4f3f4f5463788efee2b57cb1aef44"),
]

# ``centers --max-period 10`` on a fresh cache: every center the kernel finds
# up to period 10, and every enclosure endpoint it rounds, byte for byte
PERIOD_10_STDOUT = "3e5d0c134f851847044e28e881e543bbab2115155bce6d62eca95aa708dd99c5"
PERIOD_10_CACHE = "0108cd2c10acdf2c16876a80fba48e4a8189d587755d83114482a88bc488333b"

# ``centers --max-period 11`` on the period-10 cache: it prints the SFT of every
# stored center, rebuilt from the orbit order its proof gives, so it pins the
# proof and the rebuild byte for byte
PERIOD_11_STDOUT = "de2ffd9ad112ead75b4e25788dffbde6d4f82e02620387a7a67b97fe8281e88c"
PERIOD_11_CACHE = "f6cf2f3e6dcc3e0141dd27c464dd1df9cb724ca513ad89a77b23e6590e1bd6ab"

# ``centers --max-period 12`` on a fresh cache: the period cap, 380 centers,
# each located and proved in this run
PERIOD_12_STDOUT = "54f8f887e5194a646a94a57fc19b0c4e68f8e32968f294139b28166be83fde4b"
PERIOD_12_CACHE = "e01dac2401d53fb647f2fa927d9d0cbaac81d588e18d80235b8f1be462ee127d"

# (r, eps, exit code, stdout digest) on the period-9 cache
PERIOD_9_LOGISTIC = [
    ("3.5", "1/32", 0, "abe24714c6f156ab52d4ff29a564907247fd7a59ee4ebcb8685e9a1ff3a76b29"),
    ("3.5", "1/128", 0, "e10e5fff0c79ae519d69feb4da3aea780596d41337071ce698c1a2f3989fdc67"),
    ("3.63", "1/32", 3, "21d6cf4881ac372e241390f60253f6cfacb48ac46c2093376fc20790bc6d5917"),
    ("3.63", "1/128", 3, "0d180c6007e937f100224b8ca53525e87ebadaccd6626ed11835c0133310bf62"),
    ("3.74", "1/32", 0, "8515966cbc2d6ea8c2b1f9e0234cf1a939598720e5f16a611ee28687b77028ec"),
    ("3.74", "1/128", 3, "8aa92e0bfd25a774760c9fdb905b9b362407191bea79d1ccb54799097063aad4"),
    ("3.9", "1/32", 0, "b1e37b4ff9dbcbebf5059c4392fbf9998f7337424ecff256392ffa723a59350f"),
    ("3.9", "1/128", 0, "ae0faed331380d18200c4b6a7dffcd06956c7a74b1b5d0eb1be88cce1f7c9756"),
    ("3.97", "1/32", 0, "7c60abba763963fdd983a75226d306fd90a13ca76ab652b5ac4bfa1efecd07a0"),
    ("3.97", "1/128", 0, "fbaebcf06a24c87b11861febc5c22cd7166d529e56c4dfeb05e86d2706f47aab"),
]

COARSE_STDOUT = "59c5028bfe41ddeb81c46dd7d8bcaf8f702e8cb1c297dc57c8714d283b33647c"
COARSE_CACHE = CENTERS_CACHE  # the file holds no entropy, so eps leaves no mark in it

# (r, eps, exit code, stdout digest) on the period-6 cache at eps 1/1000
COARSE_LOGISTIC = [
    ("3.5", "1/32", 3, "61f65eda718e506d423ee8e4364563c5d75239642119dd2f6e1f509d2a3a307c"),
    ("3.7", "1/128", 3, "355f9516073ae8e89ef3fe87eb8e6d3e30df76984978893ce3aba3928396b1cb"),
    ("3.83", "1/128", 3, "e76c89daecfba5223e1eb70e37824b3ca3412e430d73eee36170a97f15468f6c"),
    ("3.99", "1/128", 3, "6793b1edc99e74ad6f5a6ee5b9d33d8fef125b7bde8a7ad8c6e724e74e92bba8"),
]

# (id, map or subshift, argv after the file, stdout digest)
FILE_CALLS = [
    ("tent-horseshoe", TENT, ["entropy", "pwl", "--method", "horseshoe", "--max-n", "6"],
     "4e2bdf6e821e1e4d4b30932564e87f0b67625d08f840625dd470df66bf0cec2d"),
    ("plateau-horseshoe", PLATEAU, ["entropy", "pwl", "--method", "horseshoe", "--max-n", "7"],
     "0576c8ba02458eb1c31925b360dfa08114dcf900a2e62d3724d033ae9d70a959"),
    ("r4-horseshoe", FULL_LOGISTIC, ["entropy", "pwl", "--method", "horseshoe", "--max-n", "4"],
     "3dee71cb706bcb04caa4dcaf6c29f9433f0ae0c1c20eeda03c41c430ee484bea"),
    # a point, a narrow and a wide parameter enclosure inside (3, 4]
    ("r39-horseshoe", {"r": "39/10"},
     ["entropy", "pwl", "--method", "horseshoe", "--max-n", "6"],
     "d75879b0839752e43f6d3a64360f9e564d248eed6218052adf04da555b6e3488"),
    ("r383-384-horseshoe", {"r": ["383/100", "96/25"]},
     ["entropy", "pwl", "--method", "horseshoe", "--max-n", "6"],
     "5d56c680502de0e507cfb1a350eb4010d946ad45de6281b7fd702e9172e304e8"),
    ("r39-4-horseshoe", {"r": ["39/10", "4"]},
     ["entropy", "pwl", "--method", "horseshoe", "--max-n", "6"],
     "8b694f1345406c919892b455e639da84914eaac9f7f5ff4f0d2c575cbae21a99"),
    ("skew-tent-variation", SKEW_TENT, ["entropy", "pwl", "--method", "variation", "--n-max", "8"],
     "ecfc6e5e30882ae12e469b40299fc70e301ed79f2b3005e8d383ddb5f39065e3"),
    ("golden-mean-sft", GOLDEN_MEAN, ["sft", "entropy", "--eps", "1e-9"],
     "b20e244e7a4505e1100785f4d3b916a4594862ecd44ee2be4e3bbdb8c37e9b46"),
    ("chord-24-sft", CHORD_24, ["sft", "entropy", "--eps", "1e-9"],
     "c8a75af2b3539e9d41252a8fe2d427886c3187cb612c024976e40c20168dbe5a"),
    # below float reach: Newton steps with exact residuals
    ("chord-24-sft-1e-100", CHORD_24, ["sft", "entropy", "--eps", "1e-100"],
     "8075f8e9b5814c1fefb229deab9db3c5a633df08feae64f4afd7c5f02512d792"),
    ("chord-60-sft", CHORD_60, ["sft", "entropy", "--eps", "1e-6"],
     "942c3a4d662287a384ffb4e1c43b17de4d336866aab943dec254a91fe8d3e548"),
    ("dense-12-sft", DENSE_12, ["sft", "entropy", "--eps", "1e-6"],
     "679d0e273c9114983cd6165a76ca14def6e66474e834281c4a43e4e0da3224e0"),
    # the prefix code each way on every subshift it admits
    ("golden-mean-encode", GOLDEN_MEAN, ["sft", "kappa", "encode", "--word", "0100101"],
     "7515cb90cf3186c07df01122148904b2774f1392a5184dbbfe9f9b3d96f6beac"),
    ("golden-mean-decode", GOLDEN_MEAN, ["sft", "kappa", "decode", "--word", "10110"],
     "81483b9a7f43bd820a3a64b96b612158364654337a4817ea8982f8106aee4575"),
    ("mirrored-golden-mean-encode", MIRRORED_GOLDEN_MEAN,
     ["sft", "kappa", "encode", "--word", "1011011"],
     "5af29a435d116a0131b552d508ba0a6a0aae7974de30511e0e4f66018d795b84"),
    ("mirrored-golden-mean-decode", MIRRORED_GOLDEN_MEAN,
     ["sft", "kappa", "decode", "--word", "10110"],
     "547b471ec76c09e94dae5e3cb87112617c6387d22f255146f807d05ddcf673ea"),
    ("full-shift-encode", FULL_SHIFT, ["sft", "kappa", "encode", "--word", "0110"],
     "d59aefe0c1125b6793bb2fde3bccbb548ea7c7de773fdba392c97a68e82f70df"),
    ("full-shift-decode", FULL_SHIFT, ["sft", "kappa", "decode", "--word", "10110"],
     "b1009ed6959a761ffae1451f8e430e37e7d669fba4721fc36fc1622d7404e935"),
    # few branches per target: pins the max_p cut before the shrink levels
    ("tent-horseshoe-max-p", TENT,
     ["entropy", "pwl", "--method", "horseshoe", "--max-p", "8", "--grid-depth", "0"],
     "de7f45ba938ac6aea3306bdfffd757b4de7b33cffad992c2fa96ff6104e7aa37"),
    # no grid fallback: every target is a branch image of the iterate
    ("plateau-horseshoe-no-grid", PLATEAU,
     ["entropy", "pwl", "--method", "horseshoe", "--grid-depth", "0"],
     "6e819e0f8f34af7ea26c4e0653386e31769e0fc700e743f447dc200622323f7a"),
]

# (entropy target given to ``realize``, horseshoe argv after the file, stdout digest)
REALIZED_CALLS = [
    ("1", ["--max-n", "8"], "6096ef393be51fa2415051438471c89b2e3f1465025a336a95a94db74ebae840"),
    ("0.6", ["--max-n", "6"], "e7fecc6fdea38c6d6ed88f9dbfe06e7744a2d3e22793682954fa9e36d7faac1b"),
    # the benchmark's hard class: node denominators near 140 bits at n = 7
    ("0.88", ["--max-n", "7"], "6ad8c7e4199b4911ec7d4b106e3639e098ae013e346f8d22305f30bbe087a8a2"),
    ("0.42", ["--max-n", "7"], "6f9021dd83e48971e4a7d03ad0203fae4df353c25efacba1e021ddc5242418eb"),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_json(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["--format", "json", *argv])
    return code, buf.getvalue()


def check(code: int, out: str, want_code: int, want_sha: str) -> None:
    assert (code, _sha(out.encode())) == (want_code, want_sha), (
        f"exit {code}, stdout sha256 {_sha(out.encode())}:\n{out}"
    )


def build_cache(tmp_path_factory, period: str, *eps: str) -> tuple:
    path = tmp_path_factory.mktemp("golden") / "centers.jsonl"
    argv = ["centers", "--max-period", period, *eps, "--cache-path", str(path)]
    code, out = run_json(argv)
    return path, code, out


@pytest.fixture(scope="module")
def centers_cache(tmp_path_factory):
    return build_cache(tmp_path_factory, "6")


@pytest.fixture(scope="module")
def coarse_cache(tmp_path_factory):
    return build_cache(tmp_path_factory, "6", "--eps", "1/1000")


@pytest.fixture(scope="module")
def period_10_cache(tmp_path_factory):
    return build_cache(tmp_path_factory, "10")


@pytest.fixture(scope="module")
def period_9_cache(tmp_path_factory):
    return build_cache(tmp_path_factory, "9")


def test_golden_centers(centers_cache):
    path, code, out = centers_cache
    check(code, out, 0, CENTERS_STDOUT)
    assert _sha(path.read_bytes()) == CENTERS_CACHE, path.read_text()


@pytest.mark.parametrize("r, eps, want_code, want_sha", LOGISTIC, ids=[c[0] for c in LOGISTIC])
def test_golden_logistic(centers_cache, r, eps, want_code, want_sha):
    path = centers_cache[0]
    argv = ["entropy", "logistic", "--r", r, "--eps", eps, "--max-period", "6"]
    code, out = run_json(argv + ["--cache-path", str(path)])
    check(code, out, want_code, want_sha)
    # every period up to 6 already holds its count of centers, so nothing is appended
    assert _sha(path.read_bytes()) == CENTERS_CACHE


def test_golden_centers_period_10(period_10_cache):
    path, code, out = period_10_cache
    check(code, out, 0, PERIOD_10_STDOUT)
    assert _sha(path.read_bytes()) == PERIOD_10_CACHE
    # a change in which roots the scan accepts shows as a count, not only a digest
    periods = [c["period"] for c in json.loads(out)["centers"]]
    assert [periods.count(p) for p in range(1, 11)] == [1, 1, 1, 2, 3, 5, 9, 16, 28, 51]


def test_golden_centers_period_11(period_10_cache, tmp_path):
    path = tmp_path / "centers.jsonl"
    path.write_bytes(period_10_cache[0].read_bytes())
    code, out = run_json(["centers", "--max-period", "11", "--cache-path", str(path)])
    check(code, out, 0, PERIOD_11_STDOUT)
    assert _sha(path.read_bytes()) == PERIOD_11_CACHE


def test_golden_centers_period_12(tmp_path_factory):
    path, code, out = build_cache(tmp_path_factory, "12")
    check(code, out, 0, PERIOD_12_STDOUT)
    assert _sha(path.read_bytes()) == PERIOD_12_CACHE
    data = json.loads(out)
    assert (len(data["centers"]), data["unresolved"]) == (380, [])


@pytest.mark.parametrize(
    "r, eps, want_code, want_sha",
    PERIOD_9_LOGISTIC,
    ids=[f"{c[0]}-{c[1]}" for c in PERIOD_9_LOGISTIC],
)
def test_golden_logistic_period_9(period_9_cache, r, eps, want_code, want_sha):
    path, code, _ = period_9_cache
    assert code == 0
    before = path.read_bytes()
    argv = ["entropy", "logistic", "--r", r, "--eps", eps, "--max-period", "9"]
    code, out = run_json(argv + ["--cache-path", str(path)])
    check(code, out, want_code, want_sha)
    assert path.read_bytes() == before


def test_golden_coarse_centers(coarse_cache):
    path, code, out = coarse_cache
    check(code, out, 0, COARSE_STDOUT)
    assert _sha(path.read_bytes()) == COARSE_CACHE, path.read_text()


@pytest.mark.parametrize(
    "r, eps, want_code, want_sha", COARSE_LOGISTIC, ids=[c[0] for c in COARSE_LOGISTIC]
)
def test_golden_logistic_refined(coarse_cache, r, eps, want_code, want_sha):
    path = coarse_cache[0]
    argv = ["entropy", "logistic", "--r", r, "--eps", eps, "--max-period", "6"]
    code, out = run_json(argv + ["--cache-path", str(path)])
    check(code, out, want_code, want_sha)
    # a query writes nothing to a complete cache
    assert _sha(path.read_bytes()) == COARSE_CACHE


@pytest.mark.parametrize(
    "payload, argv, want_sha", [c[1:] for c in FILE_CALLS], ids=[c[0] for c in FILE_CALLS]
)
def test_golden_file_commands(tmp_path, payload, argv, want_sha):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    code, out = run_json([*argv, "--file", str(path)])
    check(code, out, 0, want_sha)


@pytest.mark.parametrize(
    "h, argv, want_sha", REALIZED_CALLS, ids=[f"realize-{c[0]}-horseshoe" for c in REALIZED_CALLS]
)
def test_golden_realized_horseshoe(tmp_path, h, argv, want_sha):
    path = tmp_path / "realized.json"
    assert run_json(["realize", "--h", h, "--out", str(path)])[0] == 0
    code, out = run_json(["entropy", "pwl", "--method", "horseshoe", *argv, "--file", str(path)])
    check(code, out, 0, want_sha)
