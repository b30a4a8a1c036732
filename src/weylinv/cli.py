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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

from .basis import generators_for, restrict, verify_basis
from .cosets import (
    build_coset_space,
    cache_path,
    clear_cache,
    full_check,
    read_cache_file,
    standard_u_gens,
)
from .errors import (
    CacheFormatError,
    CapExceededError,
    CertificateError,
    CosetValidationError,
    UnsupportedSystemError,
    WeylinvError,
)
from .groups import (
    DEFAULT_ELEMENT_CAP,
    DEFAULT_FRAME_CAP,
    build_dihedral,
    dihedral_omega,
    group_order,
    omega_classes,
    order_method,
    root_label,
    standard_frames,
)
from .roots import build_root_system

__all__ = ["RunConfig", "main", "parse_system", "system_name", "VERIFY_TASKS"]

CACHE_ENV = "WEYLINV_CACHE_DIR"

# verify --all fans out over exactly these, in this order
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


def system_name(label: str, rank: int) -> str:
    return f"I2({rank})" if label == "I2" else f"{label}{rank}"


def _coords(token: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in token.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad coordinate list {token!r}; write doubled integers like 2,-2,0,0"
        ) from None


def _positive(token: str) -> int:
    value = int(token)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


@dataclass(frozen=True)
class RunConfig:
    command: str
    type_label: Optional[str]
    rank: Optional[int]
    fmt: str  # "text" | "json"
    cache_dir: Optional[str]
    max_elements: int
    max_frames: int
    jobs: int
    verbosity: int

    def __post_init__(self) -> None:
        if self.max_elements <= 0 or self.max_frames <= 0 or self.jobs <= 0:
            raise ValueError("caps and job counts must be positive")
        if self.cache_dir is not None:
            os.makedirs(self.cache_dir, exist_ok=True)
            if not os.access(self.cache_dir, os.W_OK):
                raise ValueError(f"cache dir {self.cache_dir!r} is not writable")


def _config(args: argparse.Namespace) -> RunConfig:
    system = getattr(args, "system", None)
    cache_dir = args.cache_dir or os.environ.get(CACHE_ENV) or None
    return RunConfig(
        command=args.command,
        type_label=system[0] if system else None,
        rank=system[1] if system else None,
        fmt="json" if args.json else "text",
        cache_dir=cache_dir,
        max_elements=args.max_elements,
        max_frames=args.max_frames,
        jobs=args.jobs,
        verbosity=args.verbose,
    )


def _emit(cfg: RunConfig, payload: dict, lines: Sequence[str]) -> None:
    if cfg.fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _weyl_system(cfg: RunConfig):
    """The root system carrying this label, or None for dihedral-only."""
    label, rank = cfg.type_label, cfg.rank
    if label == "I2":
        if rank == 4:
            return build_root_system("B", 2)
        return None
    if label == "G":
        return None
    return build_root_system(label, rank)


def _require_weyl(cfg: RunConfig):
    sys_ = _weyl_system(cfg)
    if sys_ is None:
        raise UnsupportedSystemError(
            f"{cfg.type_label}{cfg.rank} has no crystallographic root system "
            "here; its checks run under 'verify'"
        )
    return sys_


# ---------------------------------------------------------------------------
# commands


def cmd_roots(cfg: RunConfig, args: argparse.Namespace) -> int:
    sys_ = _require_weyl(cfg)
    coords = [list(r.doubled) for r in sys_.roots]
    lines = [f"{len(coords)} roots"]
    lines += [
        f"  {i:3d}  ({', '.join(str(c) for c in r)})" for i, r in enumerate(coords)
    ]
    _emit(
        cfg,
        {
            "type": sys_.type_label,
            "rank": sys_.rank,
            "count": len(coords),
            "doubled_coordinates": coords,
        },
        lines,
    )
    return 0


def cmd_order(cfg: RunConfig, args: argparse.Namespace) -> int:
    label, rank = cfg.type_label, cfg.rank
    if label in ("G", "I2") and _weyl_system(cfg) is None:
        n = 6 if label == "G" else rank
        order, method = 2 * n, "dihedral"
    else:
        sys_ = _require_weyl(cfg)
        order = group_order(sys_, element_cap=cfg.max_elements)
        method = order_method(sys_)
    _emit(
        cfg,
        {"type": label, "rank": rank, "order": order, "method": method},
        [f"|W({system_name(label, rank)})| = {order}  ({method})"],
    )
    return 0


def cmd_omega(cfg: RunConfig, args: argparse.Namespace) -> int:
    label, rank = cfg.type_label, cfg.rank
    if label in ("G", "I2") and _weyl_system(cfg) is None:
        n = 6 if label == "G" else rank
        classes = dihedral_omega(build_dihedral(n))
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
        _emit(cfg, payload, lines)
        return 0
    sys_ = _require_weyl(cfg)
    omega = omega_classes(sys_, max_frames=cfg.max_frames)
    reps = [
        [root_label(sys_, r) for r in rep.root_indices]
        for rep in omega.representatives
    ]
    sizes = list(omega.orbit_sizes) if omega.orbit_sizes else None
    payload = {
        "type": sys_.type_label,
        "rank": sys_.rank,
        "classes": len(reps),
        "representatives": reps,
        "orbit_sizes": sizes,
        "method": omega.method,
    }
    lines = [f"{len(reps)} classes"]
    for i, labels in enumerate(reps):
        size = f"{sizes[i]} frames" if sizes else "size not enumerated"
        lines.append(f"  class {i}: [{' '.join(labels)}]  {size}")
    _emit(cfg, payload, lines)
    return 0


def _u_generators(sys_, args: argparse.Namespace) -> tuple[int, ...]:
    if args.u_root:
        try:
            return tuple(sys_.index[c] for c in args.u_root)
        except KeyError as bad:
            raise UnsupportedSystemError(
                f"{bad.args[0]} is not a doubled root of this system"
            ) from None
    return standard_u_gens(sys_)


def cmd_cosets(cfg: RunConfig, args: argparse.Namespace) -> int:
    sys_ = _require_weyl(cfg)
    space = build_coset_space(sys_, _u_generators(sys_, args), cfg.cache_dir)
    product = space.size * space.u_order
    payload = {
        "type": sys_.type_label,
        "rank": sys_.rank,
        "cosets": space.size,
        "u_order": space.u_order,
        "group_order": product,
        "u_gen_roots": [list(g) for g in space.u_gen_roots],
    }
    lines = [
        f"{space.size} cosets; |U| = {space.u_order}; "
        f"{space.size} * {space.u_order} = {product}"
    ]
    _emit(cfg, payload, lines)
    return 0


def _frame_for(sys_, args: argparse.Namespace) -> tuple[str, tuple[int, ...]]:
    if getattr(args, "root", None):
        try:
            idxs = tuple(sys_.index[c] for c in args.root)
        except KeyError as bad:
            raise UnsupportedSystemError(
                f"{bad.args[0]} is not a doubled root of this system"
            ) from None
        return "(custom)", idxs
    frames = dict(standard_frames(sys_))
    name = getattr(args, "frame", None)
    if name is None:
        name = list(frames)[-1]
    if name not in frames:
        raise UnsupportedSystemError(
            f"no standard frame {name!r}; choices: {', '.join(frames)}"
        )
    return name, frames[name]


def cmd_fullcheck(cfg: RunConfig, args: argparse.Namespace) -> int:
    sys_ = _require_weyl(cfg)
    space = build_coset_space(sys_, _u_generators(sys_, args), cfg.cache_dir)
    fname, frame_roots = _frame_for(sys_, args)
    cert = full_check(sys_, space, frame_roots)
    m = cert.min_fold
    folds = sorted({o.fold for o in cert.orbits})
    fold_counts = {str(f): cert.fold_count(f) for f in folds}
    payload = {
        "type": sys_.type_label,
        "rank": sys_.rank,
        "cosets": space.size,
        "frame": fname,
        "orbits": len(cert.orbits),
        "min_fold": m,
        "fold_counts": fold_counts,
    }
    lines = [f"{space.size} cosets; min fold {m}; {cert.fold_count(m)} fold-{m} orbits"]
    if len(folds) == 1:
        lines.append(f"{len(cert.orbits)} orbits; fold {folds[0]}")
    else:
        lines.append(
            f"{len(cert.orbits)} orbits; folds "
            + ", ".join(f"{fold_counts[str(f)]} of fold {f}" for f in folds)
        )
    _emit(cfg, payload, lines)
    return 0


def cmd_restrict(cfg: RunConfig, args: argparse.Namespace) -> int:
    sys_ = _require_weyl(cfg)
    named = {g.name: g for g in generators_for(cfg.type_label, cfg.rank)}
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
        fname: restrict(inv, roots, sys_, cfg.cache_dir).render()
        for fname, roots in targets
    }
    payload = {
        "type": cfg.type_label,
        "rank": cfg.rank,
        "name": inv.name,
        "degree": inv.degree,
        "values": values,
    }
    lines = [f"res^{fname}({inv.name}) = {v}" for fname, v in values.items()]
    _emit(cfg, payload, lines)
    return 0


def _verify_one(task: tuple[str, int, Optional[str]]) -> str:
    label, rank, cache_dir = task
    return verify_basis(label, rank, cache_dir).to_json()


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


def cmd_verify(cfg: RunConfig, args: argparse.Namespace) -> int:
    if args.all:
        tasks = [(t, r, cfg.cache_dir) for t, r in VERIFY_TASKS]
    elif cfg.type_label is not None:
        tasks = [(cfg.type_label, cfg.rank, cfg.cache_dir)]
    else:
        raise UnsupportedSystemError("verify needs a system argument or --all")
    if cfg.jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(cfg.jobs, len(tasks))) as pool:
            raw = list(pool.map(_verify_one, tasks))
    else:
        raw = [_verify_one(t) for t in tasks]
    docs = [json.loads(r) for r in raw]
    ok = all(c["status"] == "pass" for d in docs for c in d["checks"])
    if cfg.fmt == "json":
        print(json.dumps({"pass": ok, "reports": docs}, indent=2, sort_keys=True))
    else:
        for doc in docs:
            for line in _report_lines(doc, cfg.verbosity):
                print(line)
        print("all checks passed" if ok else "some checks FAILED")
    return 0 if ok else 1


def cmd_cache(cfg: RunConfig, args: argparse.Namespace) -> int:
    if cfg.cache_dir is None:
        raise UnsupportedSystemError(
            f"cache commands need --cache-dir or ${CACHE_ENV}"
        )
    if args.action == "clear":
        removed = clear_cache(cfg.cache_dir)
        _emit(
            cfg,
            {"cache_dir": cfg.cache_dir, "removed": removed},
            [f"removed {len(removed)} file(s)"] + [f"  {n}" for n in removed],
        )
        return 0
    entries = []
    if os.path.isdir(cfg.cache_dir):
        for name in sorted(os.listdir(cfg.cache_dir)):
            if not (name.startswith("cosets-") and name.endswith(".json")):
                continue
            path = os.path.join(cfg.cache_dir, name)
            doc = read_cache_file(path)
            try:
                entries.append(
                    {
                        "file": name,
                        "bytes": os.path.getsize(path),
                        "type": doc["type"],
                        "rank": doc["rank"],
                        "cosets": doc["size"],
                        "format_version": doc["format_version"],
                        "certified": doc["certificate"] is not None,
                    }
                )
            except KeyError as bad:
                raise CacheFormatError(
                    f"cache file {path} has no {bad.args[0]!r} entry"
                ) from None
    lines = [f"{len(entries)} cached space(s) in {cfg.cache_dir}"]
    for e in entries:
        cert = "certified" if e["certified"] else "no certificate"
        lines.append(
            f"  {e['file']}: {e['type']}{e['rank']}, {e['cosets']} cosets, "
            f"{e['bytes']} bytes, {cert}"
        )
    _emit(cfg, {"cache_dir": cfg.cache_dir, "spaces": entries}, lines)
    return 0


# ---------------------------------------------------------------------------
# wiring


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
    common.add_argument(
        "--max-elements", type=_positive, default=DEFAULT_ELEMENT_CAP,
        help="group enumeration cap",
    )
    common.add_argument(
        "--max-frames", type=_positive, default=DEFAULT_FRAME_CAP,
        help="frame enumeration cap",
    )
    common.add_argument("--jobs", type=_positive, default=1, help="worker pool size")
    common.add_argument("-v", "--verbose", action="count", default=0)

    sub = parser.add_subparsers(dest="command", required=True)

    def system_cmd(name: str, helptext: str, system_required: bool = True):
        p = sub.add_parser(name, parents=[common], help=helptext)
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
    try:
        cfg = _config(args)
    except (ValueError, OSError) as bad:
        print(f"weylinv: {bad}", file=sys.stderr)
        return 2
    try:
        return _DISPATCH[args.command](cfg, args)
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
