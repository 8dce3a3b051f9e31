import copy
import hashlib
import json
import random
import time
from fractions import Fraction

import pytest

from invlat.cli import main
from invlat.errors import InvariantError
from invlat.fields import QQ, gf_build
from invlat.jsonio import dumps, matrix_to_json
from invlat.matrix import Matrix, block_diag, companion, inverse
from invlat.oracle import random_instance
from invlat.poly import Poly, parse_poly

from fixtures import GOLD_4_A, GOLD_8_A, GOLD_RAT_A


def write_matrix(tmp_path, M, name="m.json"):
    path = tmp_path / name
    path.write_text(json.dumps(matrix_to_json(M)))
    return str(path)


def run(tmp_path, M, command, *extra, name="m.json"):
    inp = write_matrix(tmp_path, M, name)
    out = tmp_path / "out.json"
    code = main(["--input", inp, "--command", command, "--out", str(out), *extra])
    payload = json.loads(out.read_text()) if out.exists() else None
    return code, payload


def test_analyze_4x4_golden(tmp_path):
    code, payload = run(tmp_path, GOLD_4_A, "analyze")
    assert code == 0
    assert payload["minimal_polynomial"] == "x^3+x^2+x+1"
    assert payload["factorization"]["factors"] == [["x+1", 3]]
    comp = payload["components"][0]
    assert comp["segre_k"] == [3, 1]
    assert comp["shoda"]["witness"] == [3, 1]
    assert comp["shoda"]["characteristic_non_hyperinvariant_possible"] is True
    assert payload["characteristic_non_hyperinvariant_count"] == 1
    assert payload["lattices"]["hyperinvariant"]["member_count"] == 6
    assert payload["lattices"]["characteristic"]["member_count"] == 7


def test_analyze_rational_with_auto_factorization(tmp_path):
    code, payload = run(tmp_path, GOLD_RAT_A, "analyze")
    assert code == 0
    assert payload["minimal_polynomial"] == "x^4+2x^2+1"
    assert payload["factorization"]["factors"] == [["x^2+1", 2]]
    assert payload["lattices"]["invariant"]["member_count"] == 3
    assert payload["lattices"]["invariant"]["finite"] is True


def test_lattice_command_writes_dot(tmp_path):
    inp = write_matrix(tmp_path, GOLD_4_A)
    out = tmp_path / "lat.json"
    dot = tmp_path / "lat.dot"
    code = main(
        ["--input", inp, "--command", "lattice-chinv", "--out", str(out), "--dot", str(dot)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["member_count"] == 7
    text = dot.read_text()
    assert text.startswith("digraph hasse {")
    assert "[characteristic-only]" in text


def test_lattice_space_command_alias(tmp_path):
    code, payload = run(tmp_path, GOLD_4_A, "lattice hinv")
    assert code == 0
    assert payload["command"] == "lattice-hinv"
    assert payload["report"]["member_count"] == 6


def test_shoda_command(tmp_path):
    code, payload = run(tmp_path, GOLD_8_A, "shoda")
    assert code == 0
    comp = payload["components"][0]
    assert comp["witness"] == [3, 1]
    assert comp["field_k_is_gf2"] is False
    assert comp["deg_p_is_1"] is False
    assert comp["characteristic_non_hyperinvariant_possible"] is False
    assert payload["any_characteristic_non_hyperinvariant"] is False


def test_verify_4x4_golden(tmp_path):
    code, payload = run(tmp_path, GOLD_4_A, "verify")
    assert code == 0
    assert payload["match"] is True
    assert payload["oracle"]["counts"]["total"] == 67
    assert payload["engine_counts"]["characteristic"] == 7


def test_dot_round_trip(tmp_path):
    inp = write_matrix(tmp_path, GOLD_4_A)
    out = tmp_path / "lat.json"
    dot1 = tmp_path / "a.dot"
    assert (
        main(["--input", inp, "--command", "lattice-chinv", "--out", str(out), "--dot", str(dot1)])
        == 0
    )
    dot2 = tmp_path / "b.dot"
    assert (
        main(["--input", str(out), "--command", "dot", "--out", str(tmp_path / "d.json"),
              "--dot", str(dot2)])
        == 0
    )
    assert dot1.read_text() == dot2.read_text()


def test_determinism_byte_identical(tmp_path):
    inp = write_matrix(tmp_path, GOLD_4_A)
    outs = []
    for name in ("o1.json", "o2.json"):
        out = tmp_path / name
        assert main(["--input", inp, "--command", "analyze", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_input_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--input", str(bad), "--command", "analyze"]) == 2
    missing_hint = write_matrix(tmp_path, GOLD_RAT_A)
    # inseparable / unknown command also map to 2
    assert main(["--input", missing_hint, "--command", "nonsense"]) == 2
    # entries of the wrong JSON type or with a zero denominator are rejected at
    # the boundary, not coerced, with the file's field and under --field alike
    capsys.readouterr()
    t0 = time.perf_counter()
    for field, entry in (
        ({"kind": "finite", "p": 2}, "1/2"),
        ({"kind": "rationals"}, 1.5),
        ({"kind": "rationals"}, None),
        ({"kind": "finite", "p": 2}, True),
        ({"kind": "rationals"}, "1/0"),
        # Fraction() reads these, but they are no integer or "a/b": the
        # exponent one alone took Fraction() 46 s
        ({"kind": "rationals"}, "1e20000000"),
        ({"kind": "rationals"}, "1.5"),
        ({"kind": "rationals"}, "1e3"),
        ({"kind": "rationals"}, "1_000"),
        ({"kind": "rationals"}, " 2"),
        ({"kind": "rationals"}, "1/-2"),
        ({"kind": "rationals"}, "\uff12"),  # a fullwidth digit 2
    ):
        bad.write_text(json.dumps({"field": field, "rows": [[entry, 0], [0, 1]]}))
        assert main(["--input", str(bad), "--command", "analyze"]) == 2
        bad.write_text(json.dumps({"rows": [[entry, 0], [0, 1]]}))
        assert main(["--input", str(bad), "--command", "analyze",
                     "--field", json.dumps(field)]) == 2
        err = capsys.readouterr().err
        assert err.count("input error: ") == 2 and err.count("\n") == 2, err
    assert time.perf_counter() - t0 < 10
    # the documented forms stay accepted: a signed integer, in text too, and "a/b"
    bad.write_text(json.dumps({"field": {"kind": "rationals"}, "rows": [["-3/4", "+5"], ["7", "0/9"]]}))
    assert main(["--input", str(bad), "--command", "shoda"]) == 0
    # malformed shapes are input errors too, not TypeError / AttributeError
    for obj in (
        {"field": {"kind": "finite", "p": 2}, "rows": 5},
        {"field": {"kind": "finite", "p": 2}, "rows": [5]},
        {"field": 7, "rows": [[1, 0], [0, 1]]},
        # Q[t]/(t^2+1) is no input field: factoring over it is not supported
        {"field": {"kind": "extension", "modulus": [1, 0, 1]}, "rows": [[[1, 0]]]},
    ):
        bad.write_text(json.dumps(obj))
        assert main(["--input", str(bad), "--command", "analyze"]) == 2
    assert main(["--input", missing_hint, "--command", "analyze",
                 "--field", '{"kind": "extension", "modulus": [1, 0, 1]}']) == 2
    # and so are malformed lattices given to ``dot``
    lattice = {"field": {"kind": "finite", "p": 2}, "ambient_dim": 1,
               "members": [{"basis": []}, {"basis": [[1]]}]}
    for obj in (
        {"report": 5},
        [1],
        dict(lattice, members=3),
        dict(lattice, members=[{"basis": 5}]),
        dict(lattice, ambient_dim="1"),
        dict(lattice, members=[{"basis": [[1]]}]),  # no zero subspace
        dict(lattice, field={"kind": "rationals"}, members=[{"basis": []}, {"basis": [["1/0"]]}]),
    ):
        bad.write_text(json.dumps(obj))
        assert main(["--input", str(bad), "--command", "dot"]) == 2, obj
    bad.write_text(json.dumps(lattice))
    assert main(["--input", str(bad), "--command", "dot"]) == 0
    # finite fields beyond the size bounds are refused before any modulus search
    capsys.readouterr()
    for field in ({"kind": "finite", "p": 2, "k": 1000},
                  {"kind": "finite", "p": 2, "k": 32},
                  {"kind": "finite", "p": 2, "k": 1000, "modulus": [1, 1] + [0] * 998 + [1]}):
        bad.write_text(json.dumps({"field": field, "rows": [[1]]}))
        t0 = time.perf_counter()
        assert main(["--input", str(bad), "--command", "shoda"]) == 2, field
        assert time.perf_counter() - t0 < 2, field
        err = capsys.readouterr().err
        assert err.startswith("input error: GF(2^") and err.count("\n") == 1, err
    # hints: exponents above the dimension are refused before any polynomial
    # is built or expanded, and malformed coefficients are input errors
    rot = write_matrix(tmp_path, Matrix(QQ, [[0, 1], [-1, 0]]), "rot.json")  # x^2+1
    gf2 = write_matrix(tmp_path, GOLD_4_A, "gf2.json")
    gf9 = write_matrix(tmp_path, companion(parse_poly("x+[0,2]", gf_build(3, 2))), "gf9.json")
    for inp, hint in ((rot, '[["x^2+1", 2000]]'), (rot, '[["x^3", 1]]'),
                      (rot, '[["1/0x^2", 1]]'), (rot, '[["[1,2]x", 1]]'),
                      (gf2, '[["1/2x+1", 1]]'),
                      # the matrix-entry grammar: "_" and non-ASCII digits are
                      # refused in coefficients, vector entries and exponents
                      (rot, '[["x^2+1_0/10", 1]]'), (rot, '[["1_0x^2+10", 1]]'),
                      (rot, '[["x^2_0", 1]]'), (rot, '[["x^\u0662+1", 1]]'),
                      (rot, '[["x^2+\u0661", 1]]'), (gf9, '[["x+[0,2_0]", 1]]')):
        t0 = time.perf_counter()
        for command in ("analyze", "shoda"):
            assert main(["--input", inp, "--command", command, "--hint", hint]) == 2, hint
        assert time.perf_counter() - t0 < 2, hint
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 2, err
    # the same hints, spelled in the grammar, are accepted
    for inp, hint in ((rot, '[["x^2+10/10", 1]]'), (gf9, '[["x-[0,+1]", 1]]')):
        assert main(["--input", inp, "--command", "shoda", "--hint", hint]) == 0, hint


_ODD_VALUES = (
    None, True, False, 0, -1, 3, 2**64 + 1, 1.5, "", "x", "1/2", [], [[]], [0], {},
    {"kind": "rationals"},
)


def _json_paths(v, path=()):
    yield path
    if isinstance(v, dict):
        for key in v:
            yield from _json_paths(v[key], path + (key,))
    elif isinstance(v, list):
        for i, x in enumerate(v):
            yield from _json_paths(x, path + (i,))


def _mutate(obj, rng):
    """``obj`` with one node replaced by a value of another type, wrapped in
    a list, unwrapped, deleted or duplicated."""
    obj = copy.deepcopy(obj)
    path = rng.choice(list(_json_paths(obj)))
    op = rng.choice(("replace", "replace", "wrap", "unwrap", "delete", "duplicate"))

    def changed(old):
        if op == "wrap":
            return [old]
        if op == "unwrap" and isinstance(old, list) and old:
            return old[0]
        return copy.deepcopy(rng.choice(_ODD_VALUES))

    if not path:
        return changed(obj)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if op == "delete":
        del parent[key]
    elif op == "duplicate" and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        parent[key] = changed(parent[key])
    return obj


def _fuzz(base, commands, count, seed, tmp_path, capsys):
    """``count`` seeded mutations of ``base``, each run as the next command:
    exit 0, 2, 3 or 4 within 2 s and no traceback."""
    rng = random.Random(seed)
    path = tmp_path / "m.json"
    for i in range(count):
        obj = _mutate(base, rng)
        path.write_text(json.dumps(obj))
        t0 = time.perf_counter()
        code = main(["--input", str(path), "--command", commands[i % len(commands)],
                     "--out", str(tmp_path / "o.json")])
        elapsed = time.perf_counter() - t0
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), (obj, code, err)
        assert elapsed < 2, (obj, elapsed)
        assert "Traceback" not in err, obj


def test_malformed_input_fuzz(tmp_path, capsys):
    base = matrix_to_json(GOLD_4_A)
    _fuzz(base, ("analyze", "verify", "lattice-chinv", "shoda"), 200, 2018, tmp_path, capsys)


def test_malformed_lattice_fuzz(tmp_path, capsys):
    code, payload = run(tmp_path, GOLD_4_A, "lattice-chinv")
    assert code == 0
    _fuzz(payload["report"]["lattice"], ("dot",), 200, 2019, tmp_path, capsys)


def test_invariant_violation_exit_code(tmp_path, monkeypatch, capsys):
    import invlat.cli

    def broken(*args, **kwargs):
        raise InvariantError("S + N != A")

    monkeypatch.setattr(invlat.cli, "analyze_operator", broken)
    inp = write_matrix(tmp_path, GOLD_4_A)
    assert main(["--input", inp, "--command", "analyze"]) == 5
    err = capsys.readouterr().err
    assert err == "internal invariant violated: S + N != A\n"


def test_failed_lattice_certificate_on_engine_output_exit_code(tmp_path, monkeypatch, capsys):
    # a walk that loses an inner member of GOLD_4_A's invariant lattice fails
    # build_lattice's closure certificate inside the engine: a defect, exit 5
    from invlat.decomposition import KStructure

    walk = KStructure.invariant.func
    monkeypatch.setattr(KStructure, "invariant", property(lambda ks: (w := walk(ks))[:4] + w[5:]))
    inp = write_matrix(tmp_path, GOLD_4_A)
    assert main(["--input", inp, "--command", "lattice-inv"]) == 5
    assert capsys.readouterr().err == ("internal invariant violated: not closed under "
                                       "intersection: <e2, e3, e4> ∩ <e1, e2, e3>\n")


def test_verify_reports_a_walk_repeating_a_member_as_a_mismatch(tmp_path, monkeypatch, capsys):
    import invlat.oracle as oracle

    walk = list(oracle.enumerate_all_subspaces(GOLD_4_A.field, 4, 10**6, [GOLD_4_A]))
    monkeypatch.setattr(oracle, "enumerate_all_subspaces", lambda *args: iter(walk + walk[3:4]))
    code, payload = run(tmp_path, GOLD_4_A, "verify")
    assert code == 3
    assert payload["oracle"]["findings"] == [
        "invariant: duplicate subspaces in lattice construction"]
    assert capsys.readouterr().err.endswith("verification mismatch: engine != oracle\n")


@pytest.mark.parametrize("members, reason", [
    (lambda recs: recs + recs[3:4], "duplicate subspaces in lattice construction"),
    (lambda recs: [], "empty lattice"),
], ids=["repeated", "empty"])
def test_dot_refuses_a_lattice_json_that_is_no_lattice(tmp_path, capsys, members, reason):
    code, payload = run(tmp_path, GOLD_4_A, "lattice-chinv")
    assert code == 0
    lattice = payload["report"]["lattice"]
    lattice["members"] = members(lattice["members"])
    path = tmp_path / "lat.json"
    path.write_text(json.dumps(lattice))
    capsys.readouterr()
    assert main(["--input", str(path), "--command", "dot"]) == 2
    assert capsys.readouterr().err == f"input error: the members do not form a lattice: {reason}\n"


def test_huge_prime_field_answers_quickly(tmp_path):
    path = tmp_path / "rows.json"
    path.write_text(json.dumps({"rows": [[1, 2], [3, 4]]}))
    field = json.dumps({"kind": "finite", "p": 2**61 - 1})
    for command, code in (("shoda", 0), ("analyze", 0), ("lattice-chinv", 0), ("verify", 4)):
        t0 = time.perf_counter()
        assert main(["--input", str(path), "--field", field, "--command", command,
                     "--out", str(tmp_path / "o.json")]) == code
        assert time.perf_counter() - t0 < 10
    # x^2 + 1 is irreducible mod 2^61 - 1: one K-line, found without listing F
    path.write_text(json.dumps({"rows": [[0, -1], [1, 0]]}))
    for command, code in (("shoda", 0), ("analyze", 0), ("lattice-inv", 0), ("lattice-hinv", 0),
                          ("lattice-chinv", 0), ("verify", 4)):
        t0 = time.perf_counter()
        assert main(["--input", str(path), "--field", field, "--command", command,
                     "--out", str(tmp_path / f"{command}.json")]) == code, command
        assert time.perf_counter() - t0 < 10, command
    report = json.loads((tmp_path / "lattice-inv.json").read_text())["report"]
    assert report["complete"] and report["member_count"] == 2
    field = json.dumps({"kind": "finite", "p": 2**89 - 1})  # beyond the exact prime test
    assert main(["--input", str(path), "--field", field, "--command", "shoda"]) == 2


def test_analyze_output_bytes_pinned(tmp_path):
    # sha256 of the analyze report; guards against output drift between versions
    expected = {
        "GOLD_4": ("5131163efa4153e2fe3952fa21461a89877f9623c2047f04da149007d645ff42", GOLD_4_A),
        "GOLD_RAT": ("2f5a65cf4b85f1b69c4224300af93d21ee1cebb3bbc61e8f70b53438dfaf2cb0", GOLD_RAT_A),
        "GOLD_8": ("0617fccd705b170a06b1e3da5672f102ee7f5f7661ddf3d87f9ea670646c129e", GOLD_8_A),
    }
    for name, (digest, M) in expected.items():
        inp = write_matrix(tmp_path, M, f"{name}.json")
        out = tmp_path / f"{name}.out.json"
        assert main(["--input", inp, "--command", "analyze", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, name


def test_lattice_and_verify_output_bytes_pinned(tmp_path):
    # sha256 of the lattice-* and verify reports as the element loop wrote
    # them: GF(2), Q and GF(4) (the K of GOLD_8) run in their row kernels;
    # GOLD_8's verify also pins the oracle's classes and their findings
    expected = {
        ("GOLD_4", "lattice-inv"): "0952f45b682b333687e27d63167f67df8f31a44270cf9161b7d21816ac027b8c",
        ("GOLD_4", "lattice-hinv"): "ec41f9d6c32718f884ad42c394198df774437c75b8680f7da4de7bd8ef5485b1",
        ("GOLD_4", "lattice-chinv"): "898f4bb833ea2cc8a8e90ad9be9542fd408fb0354b90bc81cb0db6fa47f7ddc5",
        ("GOLD_4", "verify"): "d3fc1d642654d20dc5c8ed9ae58aa127d25f31c4c700ed55ba21b7b2b26c07a1",
        ("GOLD_8", "lattice-inv"): "c791362326a52f32e8391ed2a74aa6a389d416809aa4e18682b6e92d48633d20",
        ("GOLD_8", "lattice-hinv"): "6a4399105b500450852a9b7df732de202915fb0cea4a005bf48c413c48c64ef7",
        ("GOLD_8", "lattice-chinv"): "e2bd0759333062f57ba4ed7fb8b27cc8bd14fa0f9b20cebaec16b8a6359a5f21",
        ("GOLD_8", "verify"): "362d0210a33c84fdfd811fff7d2c3aba6aaa1ed86a1117f7dc9df1d8156ad76b",
        ("GOLD_RAT", "lattice-inv"): "01d47718abb140e1518fcdad3cc49c6ec9cbcd895ce3796985c69db917087384",
        ("GOLD_RAT", "lattice-hinv"): "1d86448d8aee6b3782ba072e4a2d59b2dc0fecf6b571cd2adac4f20c1c3f0824",
        ("GOLD_RAT", "lattice-chinv"): "1f62975fdf63130fdae1bd866033f2490f1e1d1df5e0db12e967cedbc0fb2821",
    }
    matrices = {"GOLD_4": GOLD_4_A, "GOLD_8": GOLD_8_A, "GOLD_RAT": GOLD_RAT_A}
    for (name, command), digest in expected.items():
        inp = write_matrix(tmp_path, matrices[name], f"{name}.json")
        out = tmp_path / f"{name}.{command}.json"
        assert main(["--input", inp, "--command", command, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, (name, command)


def test_shoda_and_dot_output_bytes_pinned(tmp_path):
    # sha256 of the shoda report and of lattice-chinv's --dot output
    expected = {
        ("GOLD_4", "shoda"): "0ba5211e3bf48fb351b2b6ce2ca8a51f113a7f813748818f5c25e79ad44ed8df",
        ("GOLD_8", "shoda"): "1ea9aee3b41c96b76756c654cde7a94ed7322320c90a24ec1d71a78c913d2199",
        ("GOLD_RAT", "shoda"): "403dcdf433fd149ccc4c5bed6f33b9001a3bf68d201df585a6880a56b8e3a349",
        ("GOLD_4", "--dot"): "b8836373d421f917539381f85b5dd3ef833ef3921e08c93f4ac201a67e176f57",
        ("GOLD_8", "--dot"): "353804f606cc84d2ab71ae0d1f357ad3975ce4c93541e51cbb8cba428aefa65e",
    }
    matrices = {"GOLD_4": GOLD_4_A, "GOLD_8": GOLD_8_A, "GOLD_RAT": GOLD_RAT_A}
    for (name, what), digest in expected.items():
        inp = write_matrix(tmp_path, matrices[name], f"{name}.json")
        out, dot = tmp_path / f"{name}.{what}.json", tmp_path / f"{name}.dot"
        if what == "shoda":
            assert main(["--input", inp, "--command", "shoda", "--out", str(out)]) == 0
        else:
            argv = ["--input", inp, "--command", "lattice-chinv", "--out", str(out), "--dot", str(dot)]
            assert main(argv) == 0
            out = dot
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, (name, what)


def test_rational_denominators_output_bytes_pinned(tmp_path):
    # sha256 of the analyze and shoda reports on a conjugate of
    # C(x^3 + x/2 - 1/3) + C((x^2+1)^2) by unit triangular L U with entries in
    # {-1/2, 0, 2/3, 1}: every entry has a denominator, and the cubic is hinted
    cubic, quad = parse_poly("x^3+1/2x-1/3", QQ), parse_poly("x^2+1", QQ)
    A0 = block_diag(QQ, [companion(cubic), companion(quad**2)])
    n, rng = A0.nrows, random.Random(11)
    halves = (Fraction(-1, 2), 0, Fraction(2, 3), 1)
    L = Matrix(QQ, [[1 if i == j else rng.choice(halves) if j < i else 0 for j in range(n)]
                    for i in range(n)])
    U = Matrix(QQ, [[1 if i == j else rng.choice(halves) if j > i else 0 for j in range(n)]
                    for i in range(n)])
    P = L @ U
    M = P @ A0 @ inverse(P)
    assert all(e.denominator > 1 for row in M.rows for e in row)
    inp = write_matrix(tmp_path, M, "m.json")
    hint = json.dumps([["x^3+1/2x-1/3", 1], ["x^2+1", 2]])
    expected = {
        "analyze": "c970c67396f2ca3052159d2f8242274ae13df0a509f27680c782c0baf04a4fee",
        "shoda": "c616e716e87bfe64f3d8df40748321aeb7dd79a6213c89a0f5a9a6edaf683fc9",
    }
    for command, digest in expected.items():
        out = tmp_path / f"{command}.json"
        assert main(["--input", inp, "--command", command, "--hint", hint, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, command


def test_odd_characteristic_output_bytes_pinned(tmp_path):
    # sha256 of the shoda and analyze reports over GF(3) ((x^2+1)^2, so K =
    # GF(9)), GF(5) (factors of degree 1, 2, 3) and GF(9) (linear factors, one
    # squared): the factors and certificates print in odd characteristic and
    # in [c0,c1] coefficient vectors
    F3, F5, F9 = gf_build(3), gf_build(5), gf_build(3, 2)
    matrices = {
        "GF3": random_instance(F3, 6, "companion-primary", 5, factor_poly=parse_poly("x^2+1", F3),
                               blocks=(2, 1)).matrix,
        "GF5": random_instance(F5, 6, "general", 3).matrix,
        "GF9": random_instance(F9, 4, "general", 2).matrix,
    }
    expected = {
        ("GF3", "shoda"): "2ddebb5463b6be37e27c3128d3264cb938d0891d3219910f68eb33a31cc5c70c",
        ("GF3", "analyze"): "711b793d1fffc107ebf6f9dd2d3495e87b74347e377676a1866125be91158079",
        ("GF5", "shoda"): "514d60251bd35adbb0dbc46046f9e329dd78ba51a212319a55690dac20731387",
        ("GF5", "analyze"): "7f60d7e573e525a1aac26791f9597ed8a0cd6c9afa16d888d9e883e8bfb70dfc",
        ("GF9", "shoda"): "cf1ac65231647e802f9cad803c8b6b0a8c8737b20a9acba338ddf18f63154116",
        ("GF9", "analyze"): "ad312504621bc4a8b6da8ebea10c6932a2b930dc666f3c3525594834e6a0434c",
    }
    for (name, command), digest in expected.items():
        inp = write_matrix(tmp_path, matrices[name], f"{name}.json")
        out = tmp_path / f"{name}.{command}.json"
        assert main(["--input", inp, "--command", command, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, (name, command)


def test_lattice_hinv_on_the_conjugated_staircase(tmp_path):
    # nilpotent (5,4,3,2,1) over Q, n = 15, conjugated by L U with L and U unit
    # triangular (entries -1, 0, 1): one FHL member per tuple, 2^5 of them
    sizes, n = (5, 4, 3, 2, 1), 15
    starts = [sum(sizes[:k]) for k in range(len(sizes))]
    J = Matrix(QQ, [[int(j == i + 1 and j not in starts) for j in range(n)] for i in range(n)])
    rng = random.Random(5)
    L = Matrix(QQ, [[1 if i == j else rng.choice((-1, 0, 1)) if j < i else 0
                     for j in range(n)] for i in range(n)])
    U = Matrix(QQ, [[1 if i == j else rng.choice((-1, 0, 1)) if j > i else 0
                     for j in range(n)] for i in range(n)])
    P = L @ U
    code, payload = run(tmp_path, P @ J @ inverse(P), "lattice-hinv")
    assert code == 0
    payload = payload["report"]
    assert payload["member_count"] == 32 and payload["complete"] and payload["finite"]
    assert payload["components"][0]["segre_k"] == list(sizes)
    assert len(payload["lattice"]["members"]) == 32
    assert [m["dim"] for m in payload["members"]] == sorted(m["dim"] for m in payload["members"])


def test_cap_exit_code(tmp_path):
    inp = write_matrix(tmp_path, GOLD_4_A)
    assert main(["--input", inp, "--command", "verify", "--cap-subspaces", "5"]) == 4


def test_root_search_bound_exit_code(tmp_path, capsys):
    # a huge rational coefficient would make the rational-root search
    # trial-divide up to its square root; it is refused at once, and --hint
    # gets past it
    cases = (
        ("shoda", Matrix(QQ, [[10**19, 0], [0, 1]]), '[["x-10000000000000000000", 1], ["x-1", 1]]'),
        ("analyze", Matrix(QQ, [["123456789012345678901234567890/7", 1], [0, 1]]),
         '[["x-17636684144620811271604938270", 1], ["x-1", 1]]'),
    )
    for command, M, hint in cases:
        inp = write_matrix(tmp_path, M)
        capsys.readouterr()
        t0 = time.perf_counter()
        assert main(["--input", inp, "--command", command]) == 4
        assert time.perf_counter() - t0 < 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--hint" in err
        assert main(["--input", inp, "--command", command, "--hint", hint,
                     "--out", str(tmp_path / "o.json")]) == 0


def test_root_search_pair_cap_exit_code(tmp_path, capsys):
    # x^2 + x/963761198400 + 1: the end coefficients of its integer form have
    # 6720 divisors each, so the search would test about 9e7 candidates
    inp = write_matrix(tmp_path, companion(Poly(QQ, (1, Fraction(1, 963761198400), 1))))
    capsys.readouterr()
    t0 = time.perf_counter()
    assert main(["--input", inp, "--command", "analyze"]) == 4
    assert time.perf_counter() - t0 < 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "divisor pairs" in err


def test_hinted_quadratic_passes_the_root_search_refusal(tmp_path, capsys):
    # the hinted factor's irreducibility is read off its discriminant, so the
    # input refused above without a hint is analyzed with one
    inp = write_matrix(tmp_path, companion(Poly(QQ, (1, Fraction(1, 963761198400), 1))))
    capsys.readouterr()
    t0 = time.perf_counter()
    assert main(["--input", inp, "--command", "analyze",
                 "--hint", '[["x^2+1/963761198400x+1",1]]']) == 0
    assert time.perf_counter() - t0 < 2
    factors = json.loads(capsys.readouterr().out)["factorization"]["factors"]
    assert factors == [["x^2+1/963761198400x+1", 1]]


def test_inseparable_trusted_hint_exit_code(tmp_path, capsys):
    # the trusted degree-4 hint (x^2+1)^2 is not separable: no Jordan-Chevalley
    # split may be reported for it
    inp = write_matrix(tmp_path, companion(parse_poly("x^4+2x^2+1", QQ)))
    for command in ("analyze", "shoda", "lattice-chinv"):
        capsys.readouterr()
        assert main(["--input", inp, "--command", command,
                     "--hint", '[["x^4+2x^2+1",1]]']) == 2, command
        assert capsys.readouterr().err == (
            "input error: Jordan-Chevalley unavailable: inseparable factor x^4+2x^2+1\n"
        )


def test_wrong_hint_multiplicity_exit_code(tmp_path, capsys):
    # m = (x^2-2)^2 (x-1): a hint whose degrees add up but whose multiplicities
    # are wrong is refused as input, before any component is formed
    x2, x1 = parse_poly("x^2-2", QQ), parse_poly("x-1", QQ)
    inp = write_matrix(tmp_path, block_diag(QQ, [companion(x2 ** 2), companion(x1)]))
    for command in ("shoda", "analyze"):
        capsys.readouterr()
        assert main(["--input", inp, "--command", command,
                     "--hint", '[["x^2-2",1],["x-1",3]]']) == 2, command
        assert capsys.readouterr().err == (
            "input error: product of factors does not reproduce the input\n")


@pytest.mark.parametrize("command", ["shoda", "analyze", "verify", "lattice-inv",
                                     "lattice-hinv", "lattice-chinv"])
def test_split_and_k_structure_formed_only_when_read(monkeypatch, tmp_path, command):
    # shoda reads K and the Segre characteristic off the primary decomposition:
    # it forms neither the Jordan-Chevalley split nor a K-structure; every
    # other command forms the split once and one K-structure per component
    import invlat.decomposition as decomposition

    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("_semisimple_polynomial", "_split", "build_k_structure"):
        monkeypatch.setattr(decomposition, name, counted(name, getattr(decomposition, name)))
    x1, x = parse_poly("x+1", gf_build(2)), parse_poly("x", gf_build(2))
    for A, components in ((GOLD_4_A, 1), (block_diag(gf_build(2), [companion(x1 ** 2),
                                                                     companion(x)]), 2)):
        calls.clear()
        code, payload = run(tmp_path, A, command)
        assert code == 0 and payload is not None
        expected = {} if command == "shoda" else {
            "_semisimple_polynomial": 1, "_split": 1, "build_k_structure": components}
        assert calls == expected


def test_degree_two_factor_over_gf4_exit_code(tmp_path, capsys):
    # [[0, a], [1, 1]] over GF(4) has the irreducible characteristic polynomial
    # x^2 + x + a: its K is an extension of GF(4), named GF(2^4) in reports
    inp = tmp_path / "gf4.json"
    inp.write_text(json.dumps({"field": {"kind": "finite", "p": 2, "k": 2},
                               "rows": [[[0, 0], [0, 1]], [[1, 0], [1, 0]]]}))
    for command in ("shoda", "analyze", "lattice-hinv", "verify"):
        out = tmp_path / f"{command}.json"
        assert main(["--input", str(inp), "--command", command, "--out", str(out)]) == 0, command
        payload = json.loads(out.read_text())
        if command == "analyze":
            (comp,) = payload["components"]
            assert comp["s"] == 2 and comp["segre_k"] == [1]
            assert comp["field_k"] == {"kind": "finite", "p": 2, "k": 4, "modulus": [1, 1, 0, 0, 1]}
            assert payload["lattices"]["invariant"]["member_count"] == 2
        if command == "verify":
            assert payload["match"] is True


def test_k_beyond_the_search_order_exit_code(tmp_path, capsys):
    # [[0, a], [1, 0]] over GF(4093^2) has the irreducible x^2 - a: K would be
    # named GF(4093^4), whose order is beyond fields.MAX_SEARCH_ORDER
    inp = tmp_path / "big.json"
    inp.write_text(json.dumps({"field": {"kind": "finite", "p": 4093, "k": 2},
                               "rows": [[[0, 0], [0, 1]], [[1, 0], [0, 0]]]}))
    for command in ("shoda", "analyze", "lattice-inv"):
        capsys.readouterr()
        assert main(["--input", str(inp), "--command", command]) == 2, command
        err = capsys.readouterr().err
        assert err.startswith("input error: the factor [1,0]x^2+[0,4092] makes K = GF(4093^4), "
                              "beyond the supported order MAX_SEARCH_ORDER = 16777216"), command
        assert "give the modulus" not in err, command


def test_nonpositive_caps_rejected(tmp_path):
    inp = write_matrix(tmp_path, GOLD_4_A)
    assert main(["--input", inp, "--command", "analyze", "--cap-units", "0"]) == 2


def test_hint_flag(tmp_path):
    inp = write_matrix(tmp_path, GOLD_RAT_A)
    out = tmp_path / "o.json"
    code = main(
        ["--input", inp, "--command", "analyze", "--hint", '[["x^2+1", 2]]', "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["factorization"]["factors"] == [["x^2+1", 2]]
    assert payload["factorization"]["trusted_hint"] is False


def test_field_flag_supplies_missing_field(tmp_path):
    path = tmp_path / "rows.json"
    path.write_text(json.dumps({"rows": [[0, 0], [1, 0]]}))
    out = tmp_path / "o.json"
    code = main(
        [
            "--input",
            str(path),
            "--command",
            "analyze",
            "--field",
            '{"kind": "finite", "p": 2}',
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["minimal_polynomial"] == "x^2"


def test_analyze_and_verify_pass_the_seed_to_chinv(tmp_path, monkeypatch):
    import invlat.lattices

    seeds = []
    original = invlat.lattices._unit_span

    def recorded(ks, seed):
        seeds.append(seed)
        return original(ks, seed)

    monkeypatch.setattr(invlat.lattices, "_unit_span", recorded)
    for command in ("analyze", "verify", "lattice-chinv"):
        seeds.clear()
        code, _ = run(tmp_path, GOLD_4_A, command, "--seed", "5")
        assert code == 0 and seeds == [5], command


def test_one_write_is_one_call_of_dumps(tmp_path, monkeypatch):
    # a wrapper rebound under the name dumps in every invlat namespace that holds
    # it, as an outside tracer does, sees one call per write: the writer recurses
    # through a private name
    import sys

    from invlat import jsonio

    calls, real = [], jsonio.dumps

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("invlat") and getattr(mod, "dumps", None) is real:
            monkeypatch.setattr(mod, "dumps", counted)
    code, _ = run(tmp_path, GOLD_4_A, "analyze")
    assert code == 0 and len(calls) == 1


def test_dumps_matches_the_stdlib_writer():
    # the one-pass writer of --out against json.dumps(sort_keys=True,
    # indent=2) on nested payloads, bools beside the ints they equal
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    odd = ['"', "\\", "\x00\x1f\x7f", "\n\t\r\b\f", "é", "\u2028", "\U0001f600", ""]
    atoms = (st.none() | st.booleans() | st.integers() | st.sampled_from([True, 1, False, 0])
             | st.integers(-(2**80), 2**80) | st.text() | st.sampled_from(odd))
    payloads = st.recursive(
        atoms,
        lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=3).map(tuple)
                      | st.dictionaries(st.text() | st.sampled_from(odd), kids, max_size=4)),
        max_leaves=40,
    )

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(payloads)
    @hypothesis.example({"a": [True, 1, False, 0, None], "": {}, "z": [], "t": (), "-": -(10**30)})
    def check(obj):
        assert dumps(obj) == json.dumps(obj, sort_keys=True, indent=2)

    check()
    for bad in (1.5, {"a": {1}}, [b"x"], {1: 2}):
        with pytest.raises(TypeError):
            dumps(bad)
