import copy
import hashlib
import json
import random
import time
from fractions import Fraction

from invlat.cli import main
from invlat.errors import InvariantError
from invlat.fields import QQ, gf_build
from invlat.jsonio import matrix_to_json
from invlat.matrix import Matrix, companion
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
    # entries of the wrong JSON type are rejected at the boundary, not coerced
    for field, entry in (
        ({"kind": "finite", "p": 2}, "1/2"),
        ({"kind": "rationals"}, 1.5),
        ({"kind": "rationals"}, None),
        ({"kind": "finite", "p": 2}, True),
    ):
        bad.write_text(json.dumps({"field": field, "rows": [[entry, 0], [0, 1]]}))
        assert main(["--input", str(bad), "--command", "analyze"]) == 2
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
    for inp, hint in ((rot, '[["x^2+1", 2000]]'), (rot, '[["x^3", 1]]'),
                      (rot, '[["1/0x^2", 1]]'), (rot, '[["[1,2]x", 1]]'),
                      (gf2, '[["1/2x+1", 1]]')):
        t0 = time.perf_counter()
        assert main(["--input", inp, "--command", "analyze", "--hint", hint]) == 2, hint
        assert time.perf_counter() - t0 < 2, hint
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1, err


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


def test_huge_prime_field_answers_quickly(tmp_path):
    path = tmp_path / "rows.json"
    path.write_text(json.dumps({"rows": [[1, 2], [3, 4]]}))
    field = json.dumps({"kind": "finite", "p": 2**61 - 1})
    for command, code in (("shoda", 0), ("analyze", 0), ("lattice-chinv", 0), ("verify", 4)):
        t0 = time.perf_counter()
        assert main(["--input", str(path), "--field", field, "--command", command,
                     "--out", str(tmp_path / "o.json")]) == code
        assert time.perf_counter() - t0 < 10
    field = json.dumps({"kind": "finite", "p": 2**89 - 1})  # beyond the exact prime test
    assert main(["--input", str(path), "--field", field, "--command", "shoda"]) == 2


def test_analyze_output_bytes_pinned(tmp_path):
    # sha256 of the analyze report; guards against output drift between versions
    expected = {
        "GOLD_4": ("34d0a7d756ab37635296d65c75d4cb4e32ffe3bfbaa26b3f743d7b8db837ad03", GOLD_4_A),
        "GOLD_RAT": ("7661b96eb6540193505a5db7c18907cc07d9061f15ea55b3d29e6e5cf967442e", GOLD_RAT_A),
        "GOLD_8": ("635e246bc3704e38b21b6d619cfdf671a627aa60b679dd24acd182a4d66d8825", GOLD_8_A),
    }
    for name, (digest, M) in expected.items():
        inp = write_matrix(tmp_path, M, f"{name}.json")
        out = tmp_path / f"{name}.out.json"
        assert main(["--input", inp, "--command", "analyze", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, name


def test_lattice_and_verify_output_bytes_pinned(tmp_path):
    # sha256 of the lattice-* and verify reports as the element loop wrote
    # them: GF(2), Q and GF(4) (the K of GOLD_8) run in their row kernels
    expected = {
        ("GOLD_4", "lattice-inv"): "0952f45b682b333687e27d63167f67df8f31a44270cf9161b7d21816ac027b8c",
        ("GOLD_4", "lattice-hinv"): "acffd6efa6bf811a605b6059e7f41648bec508315c7bc2f50f2ec9e5dbaf63a6",
        ("GOLD_4", "lattice-chinv"): "898f4bb833ea2cc8a8e90ad9be9542fd408fb0354b90bc81cb0db6fa47f7ddc5",
        ("GOLD_4", "verify"): "d3fc1d642654d20dc5c8ed9ae58aa127d25f31c4c700ed55ba21b7b2b26c07a1",
        ("GOLD_8", "lattice-inv"): "c791362326a52f32e8391ed2a74aa6a389d416809aa4e18682b6e92d48633d20",
        ("GOLD_8", "lattice-hinv"): "5c895bf7a53a7d90bcf22d1b6c07fc7e973749f1ea7e520385b8adba8641a968",
        ("GOLD_8", "lattice-chinv"): "e2bd0759333062f57ba4ed7fb8b27cc8bd14fa0f9b20cebaec16b8a6359a5f21",
        ("GOLD_RAT", "lattice-inv"): "01d47718abb140e1518fcdad3cc49c6ec9cbcd895ce3796985c69db917087384",
        ("GOLD_RAT", "lattice-hinv"): "db6b639933c69436f4c9d8b8514ccd0ea0c55f9818b424e1df9f5d5c0854c3e6",
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
        ("GF3", "analyze"): "cbf9fed234ce4849ecb7977410f1cac9473c9f6ff1b6edecb017a3e3db244ca0",
        ("GF5", "shoda"): "514d60251bd35adbb0dbc46046f9e329dd78ba51a212319a55690dac20731387",
        ("GF5", "analyze"): "40f628c2e4d61a233b33b8bbf26cc9bcdc43ed9b9c21150145611ddbf35737ab",
        ("GF9", "shoda"): "cf1ac65231647e802f9cad803c8b6b0a8c8737b20a9acba338ddf18f63154116",
        ("GF9", "analyze"): "fb904f31a7dbb87a522f09d1c59bd7514235f71fd3e3b6eeae59c50a27b3dae0",
    }
    for (name, command), digest in expected.items():
        inp = write_matrix(tmp_path, matrices[name], f"{name}.json")
        out = tmp_path / f"{name}.{command}.json"
        assert main(["--input", inp, "--command", command, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, (name, command)


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
