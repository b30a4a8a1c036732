"""CLI surface: parsing, outputs, exit codes, determinism."""
from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

from weylinv import basis, cli, cosets
from weylinv.errors import CertificateError
from weylinv.roots import build_root_system


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_system_forms():
    assert cli.parse_system("E8") == ("E", 8)
    assert cli.parse_system("b_6") == ("B", 6)
    assert cli.parse_system("I2(5)") == ("I2", 5)
    assert cli.parse_system("I2_7") == ("I2", 7)
    assert cli.parse_system("g2") == ("G", 2)
    with pytest.raises(Exception):
        cli.parse_system("8E")


def test_system_name_round_trip():
    assert cli.system_name("I2", 7) == "I2(7)"
    assert cli.system_name("E", 8) == "E8"


def test_roots_counts(capsys):
    code, out, _ = run(capsys, "roots", "E8")
    assert code == 0 and out.startswith("240 roots\n")
    code, out, _ = run(capsys, "roots", "F4")
    assert code == 0 and out.startswith("48 roots\n")
    code, out, _ = run(capsys, "roots", "A1")
    assert code == 0 and out.startswith("2 roots\n")


def test_roots_json(capsys):
    code, out, _ = run(capsys, "roots", "B2", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["count"] == 8 and len(doc["doubled_coordinates"]) == 8
    assert [2, 2] in doc["doubled_coordinates"]


def test_order_enumerated_and_dihedral(capsys):
    code, out, _ = run(capsys, "order", "B4")
    assert code == 0 and "384" in out and "bfs" in out
    code, out, _ = run(capsys, "order", "I2(7)")
    assert code == 0 and "|W(I2(7))| = 14" in out
    code, out, _ = run(capsys, "order", "F4", "--json")
    assert json.loads(out)["order"] == 1152


def test_omega_class_counts(capsys):
    for system, expected in [("F4", 3), ("B_6", 4), ("E6", 1), ("A4", 1), ("D5", 1)]:
        code, out, _ = run(capsys, "omega", system)
        assert code == 0 and out.startswith(f"{expected} classes"), system
    code, out, _ = run(capsys, "omega", "G2", "--json")
    doc = json.loads(out)
    assert doc["classes"] == 1 and doc["method"] == "dihedral"


def test_cosets_order_identity_line(capsys, tmp_path):
    code, out, _ = run(capsys, "cosets", "D4", "--cache-dir", str(tmp_path))
    assert code == 0
    assert out.splitlines()[0] == "8 cosets; |U| = 24; 8 * 24 = 192"


def test_cosets_with_explicit_generators(capsys):
    # the standard D4 subgroup, spelled out as doubled coordinates
    code, out, _ = run(
        capsys, "cosets", "D4",
        "--u-root", "2,-2,0,0", "--u-root", "0,2,-2,0", "--u-root", "0,0,2,-2",
    )
    assert code == 0 and out.startswith("8 cosets")
    code, _, err = run(capsys, "cosets", "D4", "--u-root", "1,1,1,1")
    assert code == 2 and "not a doubled root" in err


def test_fullcheck_non_orthogonal_roots_exits_1(capsys):
    code, out, err = run(
        capsys, "fullcheck", "D4", "--root", "2,-2,0,0", "--root", "0,2,-2,0"
    )
    assert code == 1 and out == ""
    assert "Traceback" not in err


E7_IN_E8 = (
    "1,-1,-1,-1,-1,-1,-1,1", "2,2,0,0,0,0,0,0", "-2,2,0,0,0,0,0,0",
    "0,-2,2,0,0,0,0,0", "0,0,-2,2,0,0,0,0", "0,0,0,-2,2,0,0,0",
    "0,0,0,0,-2,2,0,0",
)


def test_cosets_u_above_enumeration_range(capsys):
    """U = W(E7) inside E8 has 2,903,040 elements; its order comes from
    the root-orbit chain, not from enumerating it.  Coordinate lists
    starting with a minus sign are passed as --u-root=..."""
    code, out, err = run(
        capsys, "cosets", "E8", *(f"--u-root={c}" for c in E7_IN_E8), "--json"
    )
    assert code == 0, err
    payload = json.loads(out)
    assert payload["cosets"] == 240
    assert payload["u_order"] == 2903040
    assert payload["group_order"] == 696729600


def test_coordinate_list_with_leading_minus_as_separate_argument(capsys):
    """--u-root -2,2,0,0 and --root -2,0 read the same as the = form."""
    spaced = run(capsys, "cosets", "D4", "--u-root", "-2,2,0,0", "--json")
    attached = run(capsys, "cosets", "D4", "--u-root=-2,2,0,0", "--json")
    assert spaced == attached and spaced[0] == 0
    assert json.loads(spaced[1])["u_gen_roots"] == [[-2, 2, 0, 0]]
    spaced = run(capsys, "restrict", "I2(4)", "w1", "--root", "-2,0", "--root", "0,2")
    attached = run(capsys, "restrict", "I2(4)", "w1", "--root=-2,0", "--root=0,2")
    assert spaced == attached and spaced[0] == 0


def test_parser_reused_without_leaking_lists(capsys):
    code, out, _ = run(
        capsys, "cosets", "D4", "--u-root", "2,-2,0,0", "--u-root", "0,2,-2,0",
        "--json",
    )
    parser = cli._parser
    assert code == 0 and parser is not None
    code, out, _ = run(capsys, "cosets", "D4", "--u-root", "0,0,2,-2", "--json")
    assert code == 0 and cli._parser is parser
    assert json.loads(out)["u_gen_roots"] == [[0, 0, 2, -2]]
    code, out, _ = run(capsys, "cosets", "D4", "--json")
    assert code == 0 and len(json.loads(out)["u_gen_roots"]) == 3


@pytest.mark.parametrize("system", ["A7", "A8", "B7", "B8", "D5", "D7"])
def test_verify_ranks_outside_verify_all(capsys, system):
    """Ranks that verify --all skips; odd D_n has its own basis."""
    code, out, err = run(capsys, "verify", system, "--json")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["pass"] is True
    (report,) = doc["reports"]
    assert report["dims"]
    for degree, dim in report["dims"].items():
        assert dim["achieved"] == dim["bound"], (system, degree)


def test_fullcheck_d4(capsys, tmp_path):
    code, out, _ = run(capsys, "fullcheck", "D4", "--cache-dir", str(tmp_path))
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "8 cosets; min fold 2; 2 fold-2 orbits"
    assert lines[1] == "2 orbits; fold 2"


def test_fullcheck_json_shape(capsys, tmp_path):
    code, out, _ = run(
        capsys, "fullcheck", "D6", "--json", "--cache-dir", str(tmp_path)
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["cosets"] == 32 and doc["orbits"] == 4 and doc["min_fold"] == 3
    assert doc["fold_counts"] == {"3": 4}


def test_fullcheck_maps_certificate_failure_to_exit_1(capsys, monkeypatch):
    def boom(*a, **k):
        raise CertificateError("orbit 0 is not simply transitive")

    monkeypatch.setattr(cli, "full_check", boom)
    code, _, err = run(capsys, "fullcheck", "D4")
    assert code == 1 and "verification failure" in err


def test_restrict_square_group_values(capsys):
    code, out, _ = run(capsys, "restrict", "I2(4)", "w2")
    assert code == 0
    assert "res^P_0(w2) = {e1}{e2}" in out
    assert "res^P_1(w2) = {a1}{b1} + {2}{a1} + {2}{b1}" in out
    code, out, _ = run(capsys, "restrict", "I2(4)", "v1", "--frame", "P_1")
    assert code == 0 and out.strip() == "res^P_1(v1) = 0"


def test_restrict_by_explicit_frame_roots(capsys):
    code, out, _ = run(
        capsys, "restrict", "I2(4)", "w1", "--root", "2,0", "--root", "0,2"
    )
    assert code == 0 and out.strip() == "res^(custom)(w1) = {e1} + {e2}"


def test_restrict_rejects_unknown_name(capsys):
    code, _, err = run(capsys, "restrict", "B2", "w9")
    assert code == 2 and "choices" in err


def test_verify_single_system(capsys):
    code, out, _ = run(capsys, "verify", "B4")
    assert code == 0
    assert out.splitlines()[0] == "B4: pass (9 elements; 5 checks)"
    assert out.splitlines()[-1] == "all checks passed"


def test_verify_json_single(capsys):
    code, out, _ = run(capsys, "verify", "D4", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["pass"] is True
    assert len(doc["reports"]) == 1
    assert [b["name"] for b in doc["reports"][0]["basis"]][:3] == ["1", "u1", "u2-e2"]


def test_verify_requires_target(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2 and "--all" in err


def test_verify_all_task_order_and_determinism(capsys, tmp_path):
    args = ("verify", "--all", "--json", "--cache-dir", str(tmp_path))
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args, "--jobs", "4")
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical: cold sequential vs cached pooled
    doc = json.loads(out1)
    assert doc["pass"] is True
    got = [(r["type"], r["rank"]) for r in doc["reports"]]
    assert got == list(cli.VERIFY_TASKS)


def test_verify_all_reuses_the_systems_memos(capsys, monkeypatch):
    ref = Path(__file__).resolve().parents[1] / "benchmark" / "reference.json"
    want = json.loads(ref.read_text())["verify --all --json"]["sha256"]
    counted_names = (
        (basis, "form_of_linear_action"),
        (basis, "form_of_permutation_action"),
        (cosets, "_build_space"),
    )
    build_root_system.cache_clear()
    outs, calls = [], []
    for _ in range(2):
        calls.append([])
        for module, name in counted_names:
            def counted(*a, _real=getattr(module, name), _name=name):
                calls[-1].append(_name)
                return _real(*a)

            monkeypatch.setattr(module, name, counted)
        code, out, _ = run(capsys, "verify", "--all", "--json")
        assert code == 0
        outs.append(hashlib.sha256(out.encode()).hexdigest())
        monkeypatch.undo()
    assert outs == [want, want]
    assert set(calls[0]) == {name for _, name in counted_names}
    assert calls[1] == []  # the second run computed no form and no coset space


def test_cache_inspect_and_clear(capsys, tmp_path):
    run(capsys, "cosets", "D4", "--cache-dir", str(tmp_path))
    (cached,) = [p.name for p in tmp_path.iterdir()]
    orphan = f"{cached}.tmp4242"  # left behind by a writer that was killed
    (tmp_path / orphan).write_text('{"format_v')
    code, out, _ = run(capsys, "cache", "inspect", "--cache-dir", str(tmp_path))
    assert code == 0 and "1 cached space(s)" in out and "D4, 8 cosets" in out
    code, out, _ = run(
        capsys, "cache", "clear", "--cache-dir", str(tmp_path), "--json"
    )
    assert code == 0 and json.loads(out)["removed"] == [cached, orphan]
    assert list(tmp_path.iterdir()) == []
    code, out, _ = run(capsys, "cache", "inspect", "--cache-dir", str(tmp_path))
    assert "0 cached space(s)" in out


@pytest.mark.parametrize(
    "command", [("cosets", "D4"), ("cache", "inspect"), ("cache", "clear")]
)
def test_unusable_cache_path_exits_2(capsys, tmp_path, command):
    sys_ = build_root_system("D", 4)
    path = cosets.cache_path(sys_, cosets.standard_u_gens(sys_), str(tmp_path))
    os.mkdir(path)  # a directory where the D4 cache file belongs
    code, out, err = run(capsys, *command, "--cache-dir", str(tmp_path))
    assert code == 2 and out == ""
    assert path in err and "Traceback" not in err


@pytest.mark.parametrize(
    "content", ['{"format_version": 1, "type": "D", "ra', '{"format_version": 1}']
)
def test_cache_inspect_rejects_malformed_file(capsys, tmp_path, content):
    name = "cosets-D4-0000000000000000.json"
    (tmp_path / name).write_text(content)
    code, out, err = run(capsys, "cache", "inspect", "--cache-dir", str(tmp_path))
    assert code == 2 and out == ""
    assert name in err and "Traceback" not in err


def test_truncated_cache_file_exits_2(capsys, tmp_path):
    assert run(capsys, "cosets", "D4", "--cache-dir", str(tmp_path))[0] == 0
    (path,) = tmp_path.iterdir()
    path.write_bytes(path.read_bytes()[:200])
    code, _, err = run(capsys, "cosets", "D4", "--cache-dir", str(tmp_path))
    assert code == 2 and path.name in err


def _swap_with_fixed_point(doc):
    """Turn a 2-cycle of an action table into a 3-cycle through a fixed
    point: the table stays a permutation but is no longer an involution."""
    for table in doc["action_tables"]:
        fixed = [k for k, j in enumerate(table) if j == k]
        moved = [k for k, j in enumerate(table) if j != k]
        if fixed and moved:
            a, c = moved[0], fixed[0]
            table[a], table[c] = table[c], table[a]
            return
    raise AssertionError("no table with both a 2-cycle and a fixed point")


def _wrong_size(doc):
    doc["size"] += 1


def _zeroed_delta_mask(doc):
    """Well-formed but wrong: the orbit keeps its members and a_set."""
    doc["certificate"]["orbits"][0]["delta_masks"][0] = 0


@pytest.mark.parametrize(
    "corrupt", [_swap_with_fixed_point, _wrong_size, _zeroed_delta_mask]
)
def test_inconsistent_cache_file_exits_2(capsys, tmp_path, corrupt):
    assert run(capsys, "cosets", "D6", "--cache-dir", str(tmp_path))[0] == 0
    (path,) = tmp_path.iterdir()
    doc = json.loads(path.read_text())
    corrupt(doc)
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "cosets", "D6", "--cache-dir", str(tmp_path))
    assert code == 2 and out == ""
    assert str(path) in err and "Traceback" not in err


def test_cache_dir_from_environment(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    code, _, _ = run(capsys, "cosets", "D4")
    assert code == 0
    code, out, _ = run(capsys, "cache", "inspect")
    assert code == 0 and "1 cached space(s)" in out


def test_cache_needs_directory(capsys, monkeypatch):
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    code, _, err = run(capsys, "cache", "inspect")
    assert code == 2 and cli.CACHE_ENV in err


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "roots", "Q3")[0] == 2          # unsupported type
    assert run(capsys, "roots", "B9")[0] == 2          # unsupported rank
    assert run(capsys, "roots", "banana")[0] == 2      # unparseable token
    assert run(capsys, "omega", "B4", "--jobs", "0")[0] == 2
    assert run(capsys, "nonsense")[0] == 2


def test_element_cap_exits_3(capsys):
    code, _, err = run(capsys, "order", "E6", "--max-elements", "10")
    assert code == 3 and "resource cap" in err


def test_help_exits_0(capsys):
    assert run(capsys, "--help")[0] == 0


def test_json_outputs_validate_against_published_schema(capsys, tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    from importlib import resources

    schema = json.loads(
        resources.files("weylinv.schemas")
        .joinpath("cli-output.schema.json")
        .read_text()
    )

    def check(defname, *argv):
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0, argv
        doc = json.loads(out)
        ref = {"$ref": f"#/$defs/{defname}", "$defs": schema["$defs"]}
        jsonschema.validate(doc, ref)
        jsonschema.validate(doc, schema)  # and the top-level oneOf

    cache = str(tmp_path)
    check("roots", "roots", "B3")
    check("order", "order", "D4")
    check("order", "order", "I2(5)")
    check("omega", "omega", "F4")
    check("omega", "omega", "G2")
    check("cosets", "cosets", "D4", "--cache-dir", cache)
    check("fullcheck", "fullcheck", "D4", "--cache-dir", cache)
    check("restrict", "restrict", "B4", "v2u1")
    check("verify", "verify", "A3")
    check("cache_inspect", "cache", "inspect", "--cache-dir", cache)
    check("cache_clear", "cache", "clear", "--cache-dir", cache)
