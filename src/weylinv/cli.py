"""Batch command-line frontend.

Subcommands: roots, order, omega, cosets, fullcheck, restrict, verify,
cache.  Every command has a --json form whose output is deterministic:
no timestamps, no durations, sorted keys.  Exit codes: 0 pass, 1
verification failure, 2 usage or configuration error, 3 resource cap.

Frames and subgroups are given on the command line by doubled root
coordinates (for example --u-root 2,-2,0,0), never by index into some
other software's root ordering; README.md has the conversion table.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from contextlib import contextmanager
from itertools import combinations
from operator import mul
from typing import Optional, Sequence

from .basis import generators_for, restrict, verify_basis
from .cosets import (
    _inspect_entries,
    build_coset_space,
    clear_cache,
    full_check,
    standard_u_gens,
)
from .errors import (
    CapExceededError,
    CertificateError,
    CosetValidationError,
    UnsupportedSystemError,
)
from .groups import (
    DEFAULT_ELEMENT_CAP,
    DEFAULT_FRAME_CAP,
    build_dihedral,
    dihedral_omega,
    group_order,
    omega_classes,
    order_method,
    resolve,
    root_label,
    standard_frames,
    system_name,
)

__all__ = ["main", "parse_system", "system_name", "VERIFY_TASKS"]

CACHE_ENV = "WEYLINV_CACHE_DIR"

# verify --all runs exactly these, in this order
VERIFY_TASKS: tuple[tuple[str, int], ...] = (
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6),
    ("B", 2), ("B", 3), ("B", 4), ("B", 5), ("B", 6),
    ("D", 4), ("D", 6), ("D", 8),
    ("F", 4),
    ("E", 6), ("E", 7), ("E", 8),
    ("G", 2),
    ("I2", 4),
)

_SYSTEM_RE = re.compile(r"^(I2|[A-IK-Z])[_ ]?\(?(\d+)\)?$")


def parse_system(token: str) -> tuple[str, int]:
    """'E8', 'B_6', 'I2(5)' -> ('E', 8), ('B', 6), ('I2', 5)."""
    m = _SYSTEM_RE.match(token.strip().upper())
    if not m:
        raise argparse.ArgumentTypeError(
            f"cannot parse system {token!r}; write e.g. E8, B_6, I2(5)"
        )
    return m.group(1), int(m.group(2))


def _coords(token: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in token.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad coordinate list {token!r}; write doubled integers like 2,-2,0,0"
        ) from None


def _positive(token: str) -> int:
    try:
        value = int(token)
    except ValueError:  # argparse would name this function in its message
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _emit(args: argparse.Namespace, payload: dict, lines: Sequence[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _require_weyl(args: argparse.Namespace):
    """The printed (type, rank) and the root system of args.system."""
    name, sys_ = resolve(*args.system)
    if isinstance(sys_, int):
        raise UnsupportedSystemError(
            f"{system_name(*args.system)} has no crystallographic "
            "root system here; its checks run under 'verify'"
        )
    return name, sys_


# ---------------------------------------------------------------------------
# commands


def cmd_roots(args: argparse.Namespace) -> int:
    (label, rank), sys_ = _require_weyl(args)
    coords = [list(r) for r in sys_.roots]
    lines = [f"{len(coords)} roots"]
    lines += [
        f"  {i:3d}  ({', '.join(str(c) for c in r)})" for i, r in enumerate(coords)
    ]
    _emit(
        args,
        {
            "type": label,
            "rank": rank,
            "count": len(coords),
            "doubled_coordinates": coords,
        },
        lines,
    )
    return 0


def cmd_order(args: argparse.Namespace) -> int:
    (label, rank), target = resolve(*args.system)
    if isinstance(target, int):
        order, method = 2 * target, "dihedral"
    else:
        order = group_order(target, element_cap=args.max_elements)
        method = order_method(target)
    _emit(
        args,
        {"type": label, "rank": rank, "order": order, "method": method},
        [f"|W({system_name(label, rank)})| = {order}  ({method})"],
    )
    return 0


def cmd_omega(args: argparse.Namespace) -> int:
    (label, rank), target = resolve(*args.system)
    if isinstance(target, int):
        # I2(n) has n maximal frames for n odd, n / 2 for n even
        if (target if target % 2 else target // 2) > args.max_frames:
            raise CapExceededError(
                f"{system_name(label, rank)} has more than {args.max_frames} "
                "maximal frames (the frame cap)", args.max_frames,
            )
        classes = dihedral_omega(build_dihedral(target))
        payload = {
            "type": label,
            "rank": rank,
            "classes": len(classes),
            "orbit_sizes": [len(c) for c in classes],
            "method": "dihedral",
        }
        lines = [f"{len(classes)} classes"] + [
            f"  class {i}: {len(c)} frames" for i, c in enumerate(classes)
        ]
        _emit(args, payload, lines)
        return 0
    classes = omega_classes(target, max_frames=args.max_frames)
    reps = [[root_label(target, r) for r in rep] for rep, _ in classes]
    sizes = [size for _, size in classes]
    payload = {
        "type": label,
        "rank": rank,
        "classes": len(reps),
        "representatives": reps,
        "orbit_sizes": sizes,
        "method": "bfs",
    }
    lines = [f"{len(reps)} classes"] + [
        f"  class {i}: [{' '.join(labels)}]  {size} frames"
        for i, (labels, size) in enumerate(zip(reps, sizes))
    ]
    _emit(args, payload, lines)
    return 0


def _root_indices(sys_, coords: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
    """The indices of roots given by their doubled coordinates."""
    try:
        return tuple(sys_.index[c] for c in coords)
    except KeyError as bad:
        raise UnsupportedSystemError(
            f"{bad.args[0]} is not a doubled root of this system"
        ) from None


@contextmanager
def _as_typed(args: argparse.Namespace, sys_):
    """Name the system as typed in the coset errors raised inside: cosets
    names the root system it was handed, which is B2 for I2(4) and B_n
    for C_n."""
    try:
        yield
    except (CapExceededError, CosetValidationError) as err:
        built, typed = f"{sys_.type_label}{sys_.rank}", system_name(*args.system)
        err.args = (str(err).replace(built, typed),) + err.args[1:]
        raise


def _u_generators(sys_, args: argparse.Namespace) -> tuple[int, ...]:
    if args.u_root:
        return _root_indices(sys_, args.u_root)
    try:
        return standard_u_gens(sys_)
    except ValueError:  # it names sys_, not the label as typed
        raise UnsupportedSystemError(
            "no standard coset subgroup recorded for "
            f"{system_name(*args.system)}; give one with --u-root"
        ) from None


def cmd_cosets(args: argparse.Namespace) -> int:
    (label, rank), sys_ = _require_weyl(args)
    with _as_typed(args, sys_):
        space = build_coset_space(
            sys_, _u_generators(sys_, args), args.cache_dir, args.max_elements
        )
    product = space.size * space.u_order
    payload = {
        "type": label,
        "rank": rank,
        "cosets": space.size,
        "u_order": space.u_order,
        "group_order": product,
        "u_gen_roots": [list(g) for g in space.u_gen_roots],
    }
    lines = [
        f"{space.size} cosets; |U| = {space.u_order}; "
        f"{space.size} * {space.u_order} = {product}"
    ]
    _emit(args, payload, lines)
    return 0


def _frame_for(sys_, args: argparse.Namespace) -> tuple[str, tuple[int, ...]]:
    if args.root:
        idxs = _root_indices(sys_, args.root)
        for u, v in combinations(args.root, 2):
            if sum(map(mul, u, v)):  # nonzero also when u and v share a line
                raise UnsupportedSystemError(
                    f"frame roots {u} and {v} are not orthogonal"
                )
        return "(custom)", idxs
    frames = dict(standard_frames(sys_))
    name = args.frame
    if name is None:
        name = list(frames)[-1]
    if name not in frames:
        raise UnsupportedSystemError(
            f"no standard frame {name!r}; choices: {', '.join(frames)}"
        )
    return name, frames[name]


def cmd_fullcheck(args: argparse.Namespace) -> int:
    (label, rank), sys_ = _require_weyl(args)
    with _as_typed(args, sys_):
        space = build_coset_space(
            sys_, _u_generators(sys_, args), args.cache_dir, args.max_elements
        )
        fname, frame_roots = _frame_for(sys_, args)
        cert = full_check(sys_, space, frame_roots)
    m = cert.min_fold
    folds = sorted(set(map(len, cert.a_sets)))
    fold_counts = {str(f): cert.fold_count(f) for f in folds}
    payload = {
        "type": label,
        "rank": rank,
        "cosets": space.size,
        "frame": fname,
        "orbits": len(cert.a_sets),
        "min_fold": m,
        "fold_counts": fold_counts,
    }
    lines = [f"{space.size} cosets; min fold {m}; {cert.fold_count(m)} fold-{m} orbits"]
    if len(folds) == 1:
        lines.append(f"{len(cert.a_sets)} orbits; fold {folds[0]}")
    else:
        lines.append(
            f"{len(cert.a_sets)} orbits; folds "
            + ", ".join(f"{fold_counts[str(f)]} of fold {f}" for f in folds)
        )
    _emit(args, payload, lines)
    return 0


def cmd_restrict(args: argparse.Namespace) -> int:
    (label, rank), sys_ = _require_weyl(args)
    named = {g.name: g for g in generators_for(label, rank)}
    if args.name not in named:
        raise UnsupportedSystemError(
            f"no basis element {args.name!r}; choices: {', '.join(named)}"
        )
    inv = named[args.name]
    if args.frame or args.root:
        targets = [_frame_for(sys_, args)]
    else:
        targets = standard_frames(sys_)
    values = {
        fname: restrict(inv, roots, sys_, args.cache_dir).render()
        for fname, roots in targets
    }
    payload = {
        "type": label,
        "rank": rank,
        "name": inv.name,
        "degree": inv.degree,
        "values": values,
    }
    lines = [f"res^{fname}({inv.name}) = {v}" for fname, v in values.items()]
    _emit(args, payload, lines)
    return 0


def _report_lines(doc: dict, verbose: int) -> list[str]:
    name = system_name(doc["type"], doc["rank"])
    ok = all(c["status"] == "pass" for c in doc["checks"])
    lines = [
        f"{name}: {'pass' if ok else 'FAIL'} "
        f"({len(doc['basis'])} elements; {len(doc['checks'])} checks)"
    ]
    for c in doc["checks"]:
        if c["status"] != "pass":
            lines.append(f"  FAIL {c['id']}: {c.get('witness', '')}")
        elif verbose:
            lines.append(f"  pass {c['id']}")
    if verbose:
        dims = ", ".join(
            f"d{d}={v['achieved']}/{v['bound']}" for d, v in sorted(
                doc["dims"].items(), key=lambda kv: int(kv[0])
            )
        )
        lines.append(f"  dims {dims}")
    for w in doc["warnings"]:
        lines.append(f"  note: {w}")
    return lines


def cmd_verify(args: argparse.Namespace) -> int:
    if args.all and args.system is not None:
        raise UnsupportedSystemError(
            f"verify takes a system or --all, not {system_name(*args.system)} and --all"
        )
    if args.all:
        tasks = VERIFY_TASKS
    elif args.system is not None:
        tasks = (args.system,)
    else:
        raise UnsupportedSystemError("verify needs a system argument or --all")
    docs = [verify_basis(t, r, args.cache_dir)._payload() for t, r in tasks]
    ok = all(c["status"] == "pass" for d in docs for c in d["checks"])
    if args.json:
        print(json.dumps({"pass": ok, "reports": docs}, indent=2, sort_keys=True))
    else:
        for doc in docs:
            for line in _report_lines(doc, args.verbose):
                print(line)
        print("all checks passed" if ok else "some checks FAILED")
    return 0 if ok else 1


def cmd_cache(args: argparse.Namespace) -> int:
    if args.cache_dir is None:
        raise UnsupportedSystemError(
            f"cache commands need --cache-dir or ${CACHE_ENV}"
        )
    if args.action == "clear":
        removed = clear_cache(args.cache_dir)
        _emit(
            args,
            {"cache_dir": args.cache_dir, "removed": removed},
            [f"removed {len(removed)} file(s)"] + [f"  {n}" for n in removed],
        )
        return 0
    entries = _inspect_entries(args.cache_dir)
    lines = [f"{len(entries)} cached space(s) in {args.cache_dir}"]
    for e in entries:
        cert = "certified" if e["certified"] else "no certificate"
        lines.append(
            f"  {e['file']}: {e['type']}{e['rank']}, {e['cosets']} cosets, "
            f"{e['bytes']} bytes, {cert}"
        )
    _emit(args, {"cache_dir": args.cache_dir, "spaces": entries}, lines)
    return 0


# ---------------------------------------------------------------------------
# wiring


_CAPS = {  # flag: (default, help, the commands whose walks it bounds)
    "--max-elements": (
        DEFAULT_ELEMENT_CAP, "coset walk cap", ("order", "cosets", "fullcheck")
    ),
    "--max-frames": (DEFAULT_FRAME_CAP, "frame walk cap", ("omega",)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylinv",
        description="exact mod-2 invariant computations for Weyl groups",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON")
    common.add_argument(
        "--cache-dir", default=None, help=f"coset cache directory (or ${CACHE_ENV})"
    )
    common.add_argument("-v", "--verbose", action="count", default=0)

    sub = parser.add_subparsers(dest="command", required=True)

    def system_cmd(name: str, helptext: str, system_required: bool = True):
        p = sub.add_parser(name, parents=[common], help=helptext)
        for cap, (default, walk, commands) in _CAPS.items():
            if name in commands:
                p.add_argument(cap, type=_positive, default=default, help=walk)
        if system_required:
            p.add_argument("system", type=parse_system, help="e.g. E8, B_6, I2(5)")
        else:
            p.add_argument(
                "system", type=parse_system, nargs="?", help="e.g. E8, B_6"
            )
        return p

    system_cmd("roots", "list the root system")
    system_cmd("order", "order of the reflection group")
    system_cmd("omega", "conjugacy classes of maximal frames")

    p = system_cmd("cosets", "enumerate U\\W and validate the order identity")
    p.add_argument(
        "--u-root", action="append", type=_coords, default=None,
        metavar="C1,C2,...", help="doubled coordinates of a U generator (repeat)",
    )

    p = system_cmd("fullcheck", "certify simply-transitive frame orbits on U\\W")
    p.add_argument("--u-root", action="append", type=_coords, default=None,
                   metavar="C1,C2,...")
    p.add_argument("--frame", default=None, help="standard frame name, e.g. P_2")
    p.add_argument("--root", action="append", type=_coords, default=None,
                   metavar="C1,C2,...", help="frame root (repeat; overrides --frame)")

    p = system_cmd("restrict", "restriction of a named basis element to frames")
    p.add_argument("name", help="basis element name, e.g. v2u1")
    p.add_argument("--frame", default=None)
    p.add_argument("--root", action="append", type=_coords, default=None,
                   metavar="C1,C2,...")

    p = system_cmd("verify", "run the basis verification report", False)
    p.add_argument("--all", action="store_true",
                   help="verify every supported system")

    p = sub.add_parser("cache", parents=[common], help="inspect or clear the cache")
    p.add_argument("action", choices=("inspect", "clear"))

    return parser


_DISPATCH = {
    "roots": cmd_roots,
    "order": cmd_order,
    "omega": cmd_omega,
    "cosets": cmd_cosets,
    "fullcheck": cmd_fullcheck,
    "restrict": cmd_restrict,
    "verify": cmd_verify,
    "cache": cmd_cache,
}


_COORD_OPTIONS = ("--u-root", "--root")


def _attach_coords(argv: Sequence[str]) -> list[str]:
    """Join each --u-root/--root with the token after it, as in
    --u-root=-2,2,0,0, so that a list starting with a minus sign is not
    taken for an option."""
    out: list[str] = []
    rest = iter(argv)
    for tok in rest:
        if tok == "--":
            return out + [tok, *rest]
        nxt = next(rest, None) if tok in _COORD_OPTIONS else None
        out.append(tok if nxt is None else f"{tok}={nxt}")
    return out


_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[Sequence[str]] = None) -> int:
    global _parser
    if _parser is None:  # built on first use, once per process
        _parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parser.parse_args(_attach_coords(argv))
    except SystemExit as stop:
        return int(stop.code or 0)
    args.cache_dir = args.cache_dir or os.environ.get(CACHE_ENV) or None
    try:
        return _DISPATCH[args.command](args)
    except CapExceededError as cap:
        print(f"weylinv: resource cap: {cap}", file=sys.stderr)
        return 3
    except (CosetValidationError, CertificateError) as fail:
        print(f"weylinv: verification failure: {fail}", file=sys.stderr)
        return 1
    except (UnsupportedSystemError, ValueError, OSError) as bad:
        print(f"weylinv: {bad}", file=sys.stderr)  # an OSError names its path
        return 2


if __name__ == "__main__":
    sys.exit(main())
