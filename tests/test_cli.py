"""CLI surface: parsing, outputs, exit codes, determinism."""
from __future__ import annotations

import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from weylinv import basis, cli, cosets
from weylinv.errors import CertificateError
from weylinv.roots import build_root_system

from oracles import read_cache, write_cache


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


def test_import_loads_no_dataclasses():
    """Every command pays for its import before it computes anything.
    dataclasses pulls in inspect (and with it ast, dis and tokenize),
    only the test oracles use fractions, and only a cached coset build
    needs hashlib (and with it OpenSSL), so a fresh interpreter without
    site hooks must import the CLI without them."""
    src = Path(cli.__file__).resolve().parents[1]
    probe = (
        "import sys, weylinv.cli; "
        "print(*(m for m in ('dataclasses', 'inspect', 'fractions', 'hashlib')"
        " if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.split() == []


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


#: sha256 of the stdout of `roots X --json` and of `roots X`, pinning the
#: root order and coordinates of every supported label
_ROOTS_SHA256 = {
    "A1": ("ce5fd1a56b73623023449d07a56e8788347c698b8c30df7a1d33e8309f7529f5", "454ccd75e5664e977b51a9bc882fe3ea3f1eb0f7cc6c2785e4ffc2b10a961028"),
    "A2": ("dcfba83751221ad753253baf7d38d4f026bed7d608fde50738d80059d3bb9cdc", "1758832554b701fe1f4b1c21536765255e6a594ddb49f2334901b3f7b66e0c23"),
    "A3": ("7d1d8fa7f31165397fa446d4c030ed199ff4840884074632f2f4e2820352ba1e", "bb08dc0f1d8c54c8655d167873afa10e20f6e4096ca5694351367d613cd19b50"),
    "A4": ("73ca78b863c06182fc8df84fbf5e8c62984a15fd97482338058bd3588f0dd77a", "66c0ff044927d12c5b96250d04f4d5f6ff1ddd1e41002c4bce0799edba1c8787"),
    "A5": ("f356663d621645e4831fd214d12308a333b66488034b4b7943d486319c46bc69", "220ef87d2cd6324e27ffa66e1e018db2b11d38f96a397a7508c07899a29fc610"),
    "A6": ("0bc0292545e86b1cbd4a3e8d8c8346c4b5d0726afcbfe8c360119aaea816cc44", "a59f12ad56915fd2a6c5ad063a487b55aa10dae23ccb653db3ff58fb03f40495"),
    "A7": ("1bfe7e8b5b1d8e747d21cfb292a8a95ab010b6ff7d32c87b5d49791a8349686c", "11208438ba617f1e01581759ee7e4e0b3f9d475fac9f873421030b68e3454efa"),
    "A8": ("23c64239c7f89adf8ab6fffef26745190d4c99d1ecf2f2b1235786526957bc05", "fe7497610d70a5f73161bbdcd23b3b91d13f1bf22ba00bb90d49f5f0ca0abbf8"),
    "B2": ("79fa9d1724b71918ffa49a53310565330bf89d39d5f1d0952cafb77a49823015", "db43d7a0750911baa36660de4ef2d63c61895e01fdf03e015e5d664661b631d7"),
    "B3": ("2687588847e9df0cc3b026e15f7036c6c5d3a8f13534db76ba4614efe2b19829", "80958c3d5d12c098385009401599bfed0aa2867f233e09f969175289ccc6f482"),
    "B4": ("ee063c3de7dd32419eee9c0321819a14eb0671cd33bfab1bb8067bad3e79a950", "c082cb028c44ff23ce1aaf1d0c33689430ddd8809787ebe75a775256b16af19b"),
    "B5": ("18fb152daf54e32045980bef86e3ef0d92ada978219235c099f2a901ccc553d6", "80a0c8d8fec4f9ae65fac2f6e4d9e801eb27f393176aa3fdec3eef70f6ea55e6"),
    "B6": ("7247c8c5ff19c6f377863aa143deebf16a1d4ebb6f5a9415f55025f1ef24e1a9", "0f31ade7a5df6ee469563c4899d0b4ecf9fe3cfec30b9e2c9a5afa4c4033c30f"),
    "B7": ("f6e76fd74515f1824f0415edd6a23763cdb2b94034c30e344bd0902680d5b3ff", "bba3981d2ca786e362a6e68d19b60476a65c782a2da1343675cf9f7bb1aa4c0d"),
    "B8": ("8bd0082c85623b2b8721f6a2ddbf420de3d71483688bdd115138942fd73f3194", "2d0d77df22682f4ba2fd8aaff4c9c40b76befa6d9f8e93c6020c78e0684858c0"),
    "C2": ("79fa9d1724b71918ffa49a53310565330bf89d39d5f1d0952cafb77a49823015", "db43d7a0750911baa36660de4ef2d63c61895e01fdf03e015e5d664661b631d7"),
    "C3": ("2687588847e9df0cc3b026e15f7036c6c5d3a8f13534db76ba4614efe2b19829", "80958c3d5d12c098385009401599bfed0aa2867f233e09f969175289ccc6f482"),
    "C4": ("ee063c3de7dd32419eee9c0321819a14eb0671cd33bfab1bb8067bad3e79a950", "c082cb028c44ff23ce1aaf1d0c33689430ddd8809787ebe75a775256b16af19b"),
    "C5": ("18fb152daf54e32045980bef86e3ef0d92ada978219235c099f2a901ccc553d6", "80a0c8d8fec4f9ae65fac2f6e4d9e801eb27f393176aa3fdec3eef70f6ea55e6"),
    "C6": ("7247c8c5ff19c6f377863aa143deebf16a1d4ebb6f5a9415f55025f1ef24e1a9", "0f31ade7a5df6ee469563c4899d0b4ecf9fe3cfec30b9e2c9a5afa4c4033c30f"),
    "C7": ("f6e76fd74515f1824f0415edd6a23763cdb2b94034c30e344bd0902680d5b3ff", "bba3981d2ca786e362a6e68d19b60476a65c782a2da1343675cf9f7bb1aa4c0d"),
    "C8": ("8bd0082c85623b2b8721f6a2ddbf420de3d71483688bdd115138942fd73f3194", "2d0d77df22682f4ba2fd8aaff4c9c40b76befa6d9f8e93c6020c78e0684858c0"),
    "D4": ("80982727ea13b72c92990a22690816d3f35bd570e4652151e1989b98489824d7", "bd5f3ee2404ddccb2d936907b446d03052e7948b412e41be7cc20d8a7164a717"),
    "D5": ("5c3867a703870fd05dd71441849501bc5a35c5aebca1181e0dea555bac9088eb", "832ddb3ea918d8138b5461e2cf1516e90304f512bd7ba56ce458fa405c75041e"),
    "D6": ("d5e8b2227158ebfc25b71c9940c95756d92f71ffb9410c6db6fc5bf9158c0547", "6dc2302d4f223fcf7e211eceb0a66696d5bd68ac8202a31869a64633006cf93f"),
    "D7": ("0b7e74d7ac59ec760beac2732a5454d297230aa7d15b9a16a8f8943a1f3f4dae", "5a663b692209e8327ded32e854b528960613a6bde7fd55d03c7635f278868b8e"),
    "D8": ("ccc5b1521af0693be5c403426ce49a3d27dc00819ccea5bc40598cd66ffeac8b", "5325318f340acc6435a6e463537255a58985b74deef17e206b7bda3082e9ce6f"),
    "E6": ("280c0ce450f81e462345399c7140dd689e625144cb3f0549a7401c88c12ac17e", "d9cc9d1a0fe933ba00d6b218fcf6da399e3cdc3a98660eb05d731ec74c3903af"),
    "E7": ("1baf6409dacd7afbb24b9b2fc23e3d5c15760114d97772f0a4df157e0b119bdf", "90bcba2801e5fd269f5ed6d021a93b24752eff6948dc1ab1f4adfae34ff0324c"),
    "E8": ("101e7d6f9c8b9a94fb72507b1961e0158089a8e421a3599de312c969188f54db", "568794b9a76343df38fc243021e93c226030768fc0f526797236330ebbd8e283"),
    "F4": ("5f145de64d0cd6d7f1993b1118258149ad1db5dcc6689725a40b32643efb0328", "c145ba64af9cc993659b143ca15dfbca29e65eb48d884f0dd1358123c98fbfee"),
}


@pytest.mark.parametrize("label", sorted(_ROOTS_SHA256))
def test_roots_output_digests(capsys, label):
    got = []
    for extra in (["--json"], []):
        code, out, _ = run(capsys, "roots", label, *extra)
        assert code == 0
        got.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(got) == _ROOTS_SHA256[label]


#: (exit code, sha256 of the stdout) of `verify X --json` for every
#: supported label, and for I2(8), which has no recorded basis; most of
#: these systems are not among the ones `verify --all` reports
_VERIFY_SHA256 = {
    "A1": (0, "aedf12d57a7b01f2959affaf4369853a6b48d4289b551fec851405f0054db1ce"),
    "A2": (0, "4d0c34637b29af1c2269fcf6bf6fffc8783862d36edec23a01ade7aecd211618"),
    "A3": (0, "e501c4eaab62d7ca30d384945066b0544d16095bb2e90dddc5207bb956553972"),
    "A4": (0, "2fe4c043ccf0294000cb499304080a26b9b3d4257a501354d72c261399d64b57"),
    "A5": (0, "4380e037536f9a37ce54da76a7c143796e795d3fb4806f8b8ed85a70f551274c"),
    "A6": (0, "6d8f9aea88941305b103796f445a9b03ef80bb5f4b725c81f5302cec3bbf1437"),
    "A7": (0, "d87b6a9449eedaf10aa7efcc4a3595ad2b8d5eea558ba8612f4e699e4800d4d0"),
    "A8": (0, "ca545b303a3848b6d01c1bb41b69ecf61880eff1adcb48f2eb9214f3cfa6387f"),
    "B2": (0, "4b44dc26d2aae62f314d14a7deddb85c7e4cc10ae2c36a53d227f122aab4e1c7"),
    "B3": (0, "43f52f2834be271f8ea0c7ef00159684d5651b6edc417a91cd56300fd0ab094d"),
    "B4": (0, "e9c76b07a6543795aad9f541edc46c49c2ea1ea571ee970bbceee8c83f198e51"),
    "B5": (0, "e161dd113fcc40d376dec6fb494094c6417f8c1512aff517db47a6186877e6fe"),
    "B6": (0, "9d1626d9d25e2766c7ecc1c5ab43b66cb8afb8fc97c3904ef9085b1cf3c46402"),
    "B7": (0, "71b19cfebc3f139f4c577e57240cde6fdfb95e45894db1f78e4c4a2a6c85ebb2"),
    "B8": (0, "10039db2395c748ea6e90814ad85b6df5bbbdc68f281ce95f968e99f42f21326"),
    "C2": (0, "4b44dc26d2aae62f314d14a7deddb85c7e4cc10ae2c36a53d227f122aab4e1c7"),
    "C3": (0, "43f52f2834be271f8ea0c7ef00159684d5651b6edc417a91cd56300fd0ab094d"),
    "C4": (0, "e9c76b07a6543795aad9f541edc46c49c2ea1ea571ee970bbceee8c83f198e51"),
    "C5": (0, "e161dd113fcc40d376dec6fb494094c6417f8c1512aff517db47a6186877e6fe"),
    "C6": (0, "9d1626d9d25e2766c7ecc1c5ab43b66cb8afb8fc97c3904ef9085b1cf3c46402"),
    "C7": (0, "71b19cfebc3f139f4c577e57240cde6fdfb95e45894db1f78e4c4a2a6c85ebb2"),
    "C8": (0, "10039db2395c748ea6e90814ad85b6df5bbbdc68f281ce95f968e99f42f21326"),
    "D4": (0, "7bb8f0611cc6e46cf8fbb8c07b7c7c56dc1e13fa62c2138d019d1110d393c6e4"),
    "D5": (0, "8eb204b6285e7d9a489daa36775606e759ddd571803543866777f9b1ce5c6ed1"),
    "D6": (0, "a609d8bb98028e29a545e30a144151bf0ca4270a4187ed2140361f667e7114df"),
    "D7": (0, "c52dd3c1ce8b9f21b7ed2ce1fb71705d26984575eec61aab491ce77264697b9a"),
    "D8": (0, "c357693a73cf85fe974eeed4e75dd98503b2bacf36b0c600c02ca08983a01e88"),
    "E6": (0, "9ca223fe434f0e2e3a4b9b4aed11e997be0b1ac01244d0892debb3999eb84536"),
    "E7": (0, "ac82d42597c087408c1b313b15e6cbea13d0066f4f14f61555cecf7a2147b908"),
    "E8": (0, "051dbfb85e51e42d2c0d9525f1dd654bde9ccbbe2b0981f4bebe62d7cd17ffd1"),
    "F4": (0, "518414db387a8b19f9e5a34ffd6ae5358f3dd7d2e15b7901d0338bccbf6a951e"),
    "G2": (0, "6cfd250458f85a5614fb989a225cb97399e5f7ead956396790d83a47ce8d18c2"),
    "I2(4)": (0, "cf3c4e0f379396e1404f5cb4f050c3a855ddbd04c08bb8374f9ccf69d527309a"),
    "I2(5)": (0, "0bcf20e93bd0177d2115ee63cff45424eb02f95fcaa86ff5c3d7c482178c0737"),
    "I2(6)": (0, "0b387ab64575967ede093aca53062386e03897c5d285232a81d034931ff8b64b"),
    "I2(8)": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


@pytest.mark.parametrize("label", list(_VERIFY_SHA256))
def test_verify_output_digests(capsys, monkeypatch, label):
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    code, out, _ = run(capsys, "verify", label, "--json")
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == _VERIFY_SHA256[label]


#: sha256 over `restrict X b --json` for every basis element b of every
#: system X that `verify --all` reports but G2, which has no root system
#: to restrict to: each command's exit code and a newline, then its stdout
_RESTRICT_SHA256 = "59e2dfbb17b354da3a1688b274d86ba7609228b584704cce0af1606315e8967a"


def test_restrict_output_digest(capsys, monkeypatch):
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    digest, count = hashlib.sha256(), 0
    for label, rank in cli.VERIFY_TASKS:
        if label == "G":
            continue
        for b in basis.generators_for(label, rank):
            code, out, _ = run(
                capsys, "restrict", cli.system_name(label, rank), b.name, "--json"
            )
            digest.update(f"{code}\n".encode())
            digest.update(out.encode())
            count += 1
    assert (count, digest.hexdigest()) == (136, _RESTRICT_SHA256)


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


def test_coset_space_past_the_element_cap_exits_3(capsys, tmp_path):
    # D4 has 192 / 24 = 8 cosets of the standard U
    for cmd in ("cosets", "fullcheck"):
        code, out, err = run(capsys, cmd, "D4", "--max-elements", "4")
        assert code == 3 and out == ""
        assert "8 cosets, more than the element cap 4" in err
        code, _, _ = run(capsys, cmd, "D4", "--max-elements", "8")
        assert code == 0
    # a cached space is held to the same cap
    cache = ["--cache-dir", str(tmp_path)]
    assert run(capsys, "cosets", "D4", *cache)[0] == 0
    assert run(capsys, "cosets", "D4", "--max-elements", "4", *cache)[0] == 3
    # the order of E8 counts its cosets under the same cap
    code, out, err = run(capsys, "order", "E8", "--max-elements", "4")
    assert code == 3 and out == ""
    assert "17280 cosets, more than the element cap 4" in err


def test_fullcheck_non_orthogonal_roots_exits_2(capsys):
    code, out, err = run(
        capsys, "fullcheck", "D4", "--root", "2,-2,0,0", "--root", "0,2,-2,0"
    )
    assert code == 2 and out == ""
    assert "(2, -2, 0, 0) and (0, 2, -2, 0) are not orthogonal" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "second", ["2,2", "-2,0", "2,0"]  # not orthogonal to e1; its line twice
)
def test_restrict_rejects_roots_that_are_not_a_frame(capsys, second):
    code, out, err = run(
        capsys, "restrict", "B2", "u1", "--root", "2,0", "--root", second
    )
    named = ", ".join(second.split(","))
    assert code == 2 and out == ""
    assert f"(2, 0) and ({named}) are not orthogonal" in err


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


def test_restrict_e6_frame_without_a_two_power_form_exits_2(capsys):
    """One of the 120 maximal E6 frames whose reflection representation
    has no 2-power diagonalization: the complement of its lines holds a
    vector of squared norm 12."""
    roots = ("0,0,0,2,-2,0,0,0", "0,2,-2,0,0,0,0,0",
             "1,-1,-1,-1,-1,-1,-1,1", "1,1,1,1,1,-1,-1,1")
    argv = [tok for r in roots for tok in ("--root", r)]
    code, out, err = run(capsys, "restrict", "E6", "wt1", *argv)
    assert code == 2 and out == "", err
    assert "eigenvector norm 12 is not 2^a times a square" in err, err


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


def test_verify_system_and_all_is_a_usage_error(capsys):
    """verify with both a system and --all names both and verifies
    nothing, where --all once dropped the system silently."""
    for system in ("B4", "I2(4)"):
        code, out, err = run(capsys, "verify", system, "--all")
        assert code == 2 and out == "", err
        assert f"{system} and --all" in err, err


def test_verify_all_task_order_and_determinism(capsys, tmp_path):
    args = ("verify", "--all", "--json", "--cache-dir", str(tmp_path))
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical: cold vs cached
    doc = json.loads(out1)
    assert doc["pass"] is True
    got = [(r["type"], r["rank"]) for r in doc["reports"]]
    assert got == list(cli.VERIFY_TASKS)


def test_verify_all_reuses_the_systems_memos(capsys, monkeypatch):
    ref = Path(__file__).resolve().parents[1] / "benchmark" / "reference.json"
    want = json.loads(ref.read_text())["verify --all --json"]["sha256"]
    counted_names = (
        (basis, "form_of_linear_action"),
        (basis, "_form_of_lines"),
        (cosets, "_coset_orbit"),
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


@pytest.mark.parametrize(
    "command",
    [("cosets", "D4"), ("verify", "D4"), ("fullcheck", "D4"), ("cache", "inspect"),
     ("cache", "clear")],
)
def test_cache_dir_that_is_a_file_exits_2(capsys, tmp_path, command):
    path = tmp_path / "not-a-dir"
    path.write_text("x")
    code, out, err = run(capsys, *command, "--cache-dir", str(path))
    assert code == 2 and out == ""
    assert f"cache dir {path} is not a directory" in err and "Traceback" not in err
    assert path.read_text() == "x"


def test_truncated_cache_file_exits_2(capsys, tmp_path):
    assert run(capsys, "cosets", "D4", "--cache-dir", str(tmp_path))[0] == 0
    (path,) = tmp_path.iterdir()
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    code, _, err = run(capsys, "cosets", "D4", "--cache-dir", str(tmp_path))
    assert code == 2 and path.name in err


def _wrong_size(doc):
    doc["size"] += 1


def _a_set_past_frame(doc):
    """Well-formed but wrong: the orbit keeps its size, and its last
    active position lies past the six frame roots."""
    doc["certificate"][0][-1] = 99


@pytest.mark.parametrize("corrupt", [_wrong_size, _a_set_past_frame])
def test_inconsistent_cache_file_exits_2(capsys, tmp_path, corrupt):
    assert run(capsys, "cosets", "D6", "--cache-dir", str(tmp_path))[0] == 0
    (path,) = tmp_path.iterdir()
    doc = read_cache(path)
    corrupt(doc)
    write_cache(path, doc)
    code, out, err = run(capsys, "cosets", "D6", "--cache-dir", str(tmp_path))
    assert code == 2 and out == ""
    assert str(path) in err and "Traceback" not in err


def _extra_byte(path):
    path.write_bytes(path.read_bytes() + b"\0")


def _header_edit(**fields):
    def edit(path):
        doc = dict(json.loads(path.read_bytes()), **fields)
        path.write_bytes(json.dumps(doc).encode() + b"\n")

    return edit


def _not_utf8(path):
    path.write_bytes(b"\xff" + path.read_bytes())


@pytest.mark.parametrize(
    "corrupt",
    [
        _extra_byte,
        pytest.param(_header_edit(size=10**12), id="size_10_12"),
        pytest.param(_header_edit(size=33), id="size_times_u_order_not_W"),
        pytest.param(_header_edit(u_order=1), id="u_order_not_W_over_size"),
        # valid frame positions, but three orbits of 2^3 cover 24 of the
        # 32 cosets
        pytest.param(
            _header_edit(certificate=[[0, 2, 4]] * 3), id="a_sets_miss_cosets"
        ),
        _not_utf8,
    ],
)
def test_bad_cache_layout_exits_2_before_reading_the_body(
    capsys, tmp_path, monkeypatch, corrupt
):
    """A file is its header line: one that fails a header check, or has
    a byte after that line, exits 2 naming the file, and no coset walk
    starts, so a lying header neither allocates nor gets rebuilt over."""
    assert run(capsys, "cosets", "D6", "--cache-dir", str(tmp_path))[0] == 0
    (path,) = tmp_path.iterdir()
    corrupt(path)
    monkeypatch.setattr(cosets, "_label_bfs", lambda *a: pytest.fail("the BFS ran"))
    code, out, err = run(capsys, "cosets", "D6", "--cache-dir", str(tmp_path))
    assert code == 2 and out == ""
    assert str(path) in err and "Traceback" not in err


def test_forged_u_order_exits_2(capsys, tmp_path):
    """A D4 file claiming 4 cosets and |U| = 48 is consistent with |W|
    and its certificate, but not with its generators, which give
    |U| = 24."""
    assert run(capsys, "cosets", "D4", "--cache-dir", str(tmp_path))[0] == 0
    (path,) = tmp_path.iterdir()
    doc = read_cache(path)
    doc.update(size=4, u_order=48, certificate=[[]] * 4)
    write_cache(path, doc)
    code, out, err = run(capsys, "cosets", "D4", "--cache-dir", str(tmp_path))
    assert code == 2 and out == ""
    assert str(path) in err and "u_order 48" in err and "Traceback" not in err


def test_forged_certificate_frame_exits_2(capsys, tmp_path):
    """A D4 header holding a certificate shaped as format 2 stored it,
    with a frame root past the roots: fullcheck and verify reject the
    file by its path instead of indexing the frame."""
    assert run(capsys, "cosets", "D4", "--cache-dir", str(tmp_path))[0] == 0
    (path,) = tmp_path.iterdir()
    doc = read_cache(path)
    doc["certificate"] = {
        "frame_roots": [99999, 23, 12, 13],
        "labels": ["a1", "b1", "a2", "b2"],
        "orbits": [{"a_set": a} for a in doc["certificate"]],
    }
    write_cache(path, doc)
    for argv in (("fullcheck", "D4"), ("verify", "D4")):
        code, out, err = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert code == 2 and out == "", argv
        assert str(path) in err and "Traceback" not in err


def _old_format_file_is_ignored_listed_and_cleared(capsys, tmp_path, name, data, version):
    """A build neither opens nor changes a file of an older format (the
    version is hashed into the name); cache inspect lists it with its
    version and cache clear removes it."""
    (tmp_path / name).write_bytes(data)
    code, out, _ = run(capsys, "cosets", "D4", "--json", "--cache-dir", str(tmp_path))
    assert code == 0 and json.loads(out)["cosets"] == 8
    sys_ = build_root_system("D", 4)
    new = os.path.basename(cosets.cache_path(sys_, cosets.standard_u_gens(sys_), "."))
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([name, new])
    assert (tmp_path / name).read_bytes() == data
    code, out, _ = run(capsys, "cache", "inspect", "--json", "--cache-dir", str(tmp_path))
    spaces = {e["file"]: e for e in json.loads(out)["spaces"]}
    assert code == 0 and sorted(spaces) == sorted([name, new])
    assert spaces[name]["format_version"] == version
    assert spaces[new]["format_version"] == cosets.CACHE_FORMAT_VERSION
    assert all(e["cosets"] == 8 and e["certified"] for e in spaces.values())
    code, out, _ = run(capsys, "cache", "clear", "--json", "--cache-dir", str(tmp_path))
    assert code == 0 and sorted(json.loads(out)["removed"]) == sorted([name, new])
    assert list(tmp_path.iterdir()) == []


# the D4 file a format_version 1 build wrote: one line of JSON
_V1_D4_NAME = "cosets-D4-e90f96221d20d8ac.json"
_V1_D4 = (
    '{"action_tables":[[0,1,4,5,2,3,6,7],[0,2,1,3,4,6,5,7],[0,1,3,2,5,4,6,'
    '7],[1,0,2,3,4,5,7,6]],"certificate":{"frame_roots":[18,23,12,13],'
    '"labels":["a1","b1","a2","b2"],"orbits":[{"a_set":[1,3],'
    '"delta_masks":[2,8],"fold":2,"members":[0,1,6,7]},{"a_set":[0,2],'
    '"delta_masks":[1,4],"fold":2,"members":[2,3,4,5]}]},'
    '"format_version":1,"rank":4,"representatives":[[-18,-18,-18,-18],[-18,'
    '-18,18,18],[-18,18,-18,18],[-18,18,18,-18],[18,-18,-18,18],[18,-18,18,'
    '-18],[18,18,-18,-18],[18,18,18,18]],"size":8,"type":"D","u_gens":[[2,'
    '-2,0,0],[0,2,-2,0],[0,0,2,-2]],"u_order":24}'
    "\n"
)


def test_format_1_file_is_ignored_listed_and_cleared(capsys, tmp_path):
    _old_format_file_is_ignored_listed_and_cleared(
        capsys, tmp_path, _V1_D4_NAME, _V1_D4.encode(), 1
    )


# the D4 file a format_version 2 build wrote: its header line, then the
# int32 body of representatives, action tables and orbit members
_V2_D4_NAME = "cosets-D4-07751a7613173bf4.json"
_V2_D4 = (
    b'{"certificate":{"frame_roots":[18,23,12,13],"labels":["a1","b1","a2",'
    b'"b2"],"orbits":[{"a_set":[1,3],"delta_masks":[2,8],"fold":2},{"a_set":'
    b'[0,2],"delta_masks":[1,4],"fold":2}]},"format_version":2,"rank":4,'
    b'"size":8,"type":"D","u_gens":[[2,-2,0,0],[0,2,-2,0],[0,0,2,-2]],'
    b'"u_order":24}\n'
) + struct.pack(
    "<72i",
    -1, -1, -1, -1, -1, -1, 1, 1, -1, 1, -1, 1, -1, 1, 1, -1,
    1, -1, -1, 1, 1, -1, 1, -1, 1, 1, -1, -1, 1, 1, 1, 1,
    0, 1, 4, 5, 2, 3, 6, 7, 0, 2, 1, 3, 4, 6, 5, 7,
    0, 1, 3, 2, 5, 4, 6, 7, 1, 0, 2, 3, 4, 5, 7, 6,
    0, 1, 6, 7, 2, 3, 4, 5,
)


def test_format_2_file_is_ignored_listed_and_cleared(capsys, tmp_path):
    _old_format_file_is_ignored_listed_and_cleared(
        capsys, tmp_path, _V2_D4_NAME, _V2_D4, 2
    )


# the D4 file a format_version 3 build wrote: its header line, then the
# int32 body of action tables and orbit members
_V3_D4_NAME = "cosets-D4-fe3e9cd46297b84c.json"
_V3_D4 = (
    b'{"certificate":[[1,3],[0,2]],"format_version":3,"rank":4,"size":8,'
    b'"type":"D","u_gens":[[2,-2,0,0],[0,2,-2,0],[0,0,2,-2]],"u_order":24}\n'
) + struct.pack(
    "<40i",
    0, 1, 3, 2, 5, 4, 6, 7, 0, 2, 1, 3, 4, 6, 5, 7,
    0, 1, 4, 5, 2, 3, 6, 7, 1, 0, 2, 3, 4, 5, 7, 6,
    0, 1, 6, 7, 2, 3, 4, 5,
)


def test_format_3_file_is_ignored_listed_and_cleared(capsys, tmp_path):
    _old_format_file_is_ignored_listed_and_cleared(
        capsys, tmp_path, _V3_D4_NAME, _V3_D4, 3
    )


# the D4 file a format_version 4 build wrote: its header line, then the
# int32 body of action tables
_V4_D4_NAME = "cosets-D4-cc564d49f1d2ca12.json"
_V4_D4 = (
    b'{"certificate":[[1,3],[0,2]],"format_version":4,"rank":4,"size":8,'
    b'"type":"D","u_gens":[[2,-2,0,0],[0,2,-2,0],[0,0,2,-2]],"u_order":24}\n'
) + struct.pack(
    "<32i",
    0, 1, 3, 2, 5, 4, 6, 7, 0, 2, 1, 3, 4, 6, 5, 7,
    0, 1, 4, 5, 2, 3, 6, 7, 1, 0, 2, 3, 4, 5, 7, 6,
)


def test_format_4_file_is_ignored_listed_and_cleared(capsys, tmp_path):
    _old_format_file_is_ignored_listed_and_cleared(
        capsys, tmp_path, _V4_D4_NAME, _V4_D4, 4
    )


def test_u_root_order_does_not_reach_the_output(capsys, tmp_path):
    """Generators in either order share one cache file, and a warm load
    reports them in the order given, as a build without a cache does."""
    fwd = ("--u-root", "2,-2,0,0", "--u-root", "0,0,2,-2")
    rev = ("--u-root", "0,0,2,-2", "--u-root", "2,-2,0,0")
    cache = ("--cache-dir", str(tmp_path))
    assert run(capsys, "cosets", "D4", *fwd, *cache)[0] == 0
    code, warm, _ = run(capsys, "cosets", "D4", *rev, "--json", *cache)
    assert len(list(tmp_path.iterdir())) == 1
    assert code == 0 and warm == run(capsys, "cosets", "D4", *rev, "--json")[1]
    assert json.loads(warm)["u_gen_roots"] == [[0, 0, 2, -2], [2, -2, 0, 0]]


def test_cache_dir_is_touched_only_by_a_cache_write(capsys, tmp_path, monkeypatch):
    unused = tmp_path / "unused"
    assert run(capsys, "order", "A2", "--cache-dir", str(unused))[0] == 0
    assert not unused.exists()
    a_file = tmp_path / "a-file"
    a_file.write_text("")
    monkeypatch.setenv(cli.CACHE_ENV, str(a_file))
    assert run(capsys, "order", "A2")[0] == 0
    code, out, err = run(capsys, "cosets", "D4", "--cache-dir", str(a_file))
    assert code == 2 and out == ""
    assert str(a_file) in err and "Traceback" not in err


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
    assert run(capsys, "nonsense")[0] == 2
    # the dihedral forms exist for G2 and I2(n >= 3) only
    assert run(capsys, "order", "G3")[0] == 2
    assert run(capsys, "omega", "G5", "--json")[0] == 2
    assert run(capsys, "order", "I2(1)")[0] == 2
    assert run(capsys, "order", "I2(2)")[0] == 2


def test_commands_needing_roots_name_the_dihedral_system(capsys):
    """Labels with no dihedral form are unsupported, as under verify;
    G2 and I2(n >= 3) are sent to verify, named as the CLI writes them."""
    for argv, system in (
        (("roots", "G3"), "G3"),
        (("fullcheck", "G5"), "G5"),
        (("cosets", "I2(2)"), "I2(2)"),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2 and f"unsupported system {system}\n" in err, err
        assert run(capsys, "verify", system)[0] == 2
    for argv, system in ((("roots", "G2"), "G2"), (("fullcheck", "I2(5)"), "I2(5)")):
        code, _, err = run(capsys, *argv)
        assert code == 2, err
        assert f"{system} has no crystallographic root system here" in err, err
        assert "run under 'verify'" in err
        assert run(capsys, "verify", system)[0] == 0


def test_every_command_prints_one_name_per_system(capsys):
    """C_n prints as B_n, whose root system it is, and I2(4) as I2(4),
    though it runs on the root system of B2, under every command."""
    for system, u_root, name, want in (
        ("C3", "2,-2,0", "u1", ("B", 3)),
        ("I2(4)", "2,0", "w1", ("I2", 4)),
    ):
        for argv in (
            ("roots", system),
            ("order", system),
            ("omega", system),
            ("cosets", system, "--u-root", u_root),
            ("fullcheck", system, "--u-root", u_root),
            ("restrict", system, name),
        ):
            code, out, err = run(capsys, *argv, "--json")
            assert code == 0, err
            doc = json.loads(out)
            assert (doc["type"], doc["rank"]) == want, argv
        code, out, _ = run(capsys, "verify", system, "--json")
        (doc,) = json.loads(out)["reports"]
        assert code == 0 and (doc["type"], doc["rank"]) == want
    code, out, _ = run(capsys, "order", "C3")
    assert code == 0 and out.startswith("|W(B3)| = 48")


def test_missing_standard_coset_subgroup_names_the_label_as_typed(capsys):
    """cosets and fullcheck build the typed label's root system (B2 for
    I2(4), B4 for C4); the message names the label and --u-root."""
    for argv, system in (
        (("cosets", "I2(4)"), "I2(4)"),
        (("fullcheck", "I2(4)"), "I2(4)"),
        (("cosets", "C4"), "C4"),
        (("fullcheck", "B3"), "B3"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", err
        assert f"no standard coset subgroup recorded for {system};" in err, err
        assert "--u-root" in err
    # --u-root supplies the subgroup the table lacks
    code, out, _ = run(capsys, "cosets", "C4", "--u-root", "2,-2,0,0", "--json")
    assert code == 0 and json.loads(out)["u_order"] == 2


@pytest.mark.parametrize(
    "argv,code,message",
    [
        (("cosets", "I2(4)", "--u-root", "2,0", "--u-root", "0,2"), 1,
         "cannot key the cosets of U = <(2, 0), (0, 2)> in I2(4): "),
        (("fullcheck", "I2(4)", "--u-root", "2,0", "--u-root", "0,2"), 1,
         "cannot key the cosets of U = <(2, 0), (0, 2)> in I2(4): "),
        (("cosets", "I2(4)", "--u-root", "2,0", "--max-elements", "1"), 3,
         "U\\W(I2(4)) with |U| = 2 has 4 cosets"),
        (("cosets", "C3", "--u-root", "2,0,0", "--max-elements", "1"), 3,
         "U\\W(C3) with |U| = 2 has 24 cosets"),
        (("fullcheck", "C3", "--u-root", "2,0,0", "--max-elements", "1"), 3,
         "U\\W(C3) with |U| = 2 has 24 cosets"),
    ],
)
def test_coset_failures_name_the_label_as_typed(capsys, argv, code, message):
    """cosets and fullcheck walk B2 for I2(4) and B_n for C_n; a coset
    failure or cap names the system the user gave."""
    got, out, err = run(capsys, *argv)
    assert got == code and out == "", err
    assert message in err, err
    assert "B2" not in err and "B3" not in err, err


def test_element_cap_exits_3(capsys):
    # the root-orbit chain lists no element, so the cap does not bound it
    code, out, _ = run(capsys, "order", "E6", "--max-elements", "10")
    assert code == 0 and "51840" in out
    # E7's order walks its 2016 cosets, which the cap does bound
    code, out, err = run(capsys, "order", "E7", "--max-elements", "2015")
    assert code == 3 and out == "" and "resource cap" in err
    assert run(capsys, "order", "E7", "--max-elements", "2016")[0] == 0


@pytest.mark.parametrize("option", ["--max-elements", "--max-frames"])
def test_caps_must_be_positive(capsys, option):
    command = "omega" if option == "--max-frames" else "order"
    for value in ("0", "-1", "abc", "1.5"):
        code, out, err = run(capsys, command, "A2", option, value)
        assert code == 2 and out == ""
        assert f"argument {option}: must be a positive integer" in err
        assert "_positive" not in err  # argparse names a type function on ValueError


def test_caps_are_options_of_the_commands_they_bound(capsys):
    """--max-elements bounds the coset walks of order, cosets and
    fullcheck, --max-frames the frame walk of omega; any other command
    refuses them as usage errors instead of ignoring them."""
    for command, option in (
        ("order", "--max-elements"),
        ("cosets", "--max-elements"),
        ("fullcheck", "--max-elements"),
        ("omega", "--max-frames"),
    ):
        assert run(capsys, command, "D4", option, "100")[0] == 0
    for argv in (
        ("verify", "E7", "--max-elements", "4"),
        ("verify", "E7", "--max-frames", "4"),
        ("restrict", "A2", "v1", "--max-elements", "4"),
        ("restrict", "A2", "v1", "--max-frames", "4"),
        ("roots", "A2", "--max-elements", "4"),
        ("order", "A2", "--max-frames", "4"),
        ("omega", "A2", "--max-elements", "4"),
        ("cache", "inspect", "--max-elements", "4"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert f"unrecognized arguments: {argv[-2]} 4" in err


def test_frame_cap_exits_3(capsys):
    code, out, err = run(capsys, "omega", "E8", "--max-frames", "2024")
    assert code == 3 and out == ""
    assert "resource cap" in err and "E8" in err and "2024" in err
    ref = Path(__file__).resolve().parents[1] / "benchmark" / "reference.json"
    want = json.loads(ref.read_text())["omega E8 --json"]["sha256"]
    code, out, _ = run(capsys, "omega", "E8", "--max-frames", "2025", "--json")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == want


def test_dihedral_frame_cap_exits_3(capsys):
    """A dihedral omega honours the cap too: G2 (n = 6) has the 3
    frames {f_k, f_(k+3)}, I2(5) its 5 single reflections."""
    for system, frames in (("G2", 3), ("I2(5)", 5)):
        code, out, err = run(capsys, "omega", system, "--max-frames", str(frames - 1))
        assert code == 3 and out == ""
        assert f"{system} has more than {frames - 1} maximal frames" in err
        assert run(capsys, "omega", system, "--max-frames", str(frames))[0] == 0


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
    check("order", "order", "C3")
    check("restrict", "restrict", "C3", "u1")
    check("omega", "omega", "I2(4)")
    check("verify", "verify", "A3")
    check("cache_inspect", "cache", "inspect", "--cache-dir", cache)
    check("cache_clear", "cache", "clear", "--cache-dir", cache)
