"""Command line front end.

Every command prints one JSON result envelope to stdout and, with
``--out DIR``, also writes it to ``DIR/<command>.json`` (plus a CSV for
the curve and sweep commands).  The ``payload`` object inside the
envelope is deterministic for a fixed invocation; run metadata such as
the timestamp lives only in the envelope.  Envelopes are strict JSON: a
float that is not finite is written as the string "inf", "-inf" or
"nan", which float() reads back.  An ``--out`` that cannot be written is
an input error.

Exit codes: 0 success, 1 usage, 2 bad input or violated precondition,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import numbers
import re
import sys
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from . import builtins as registry
from .cache import atomic_write_text, cached_elementary_orbits
from .core_sft import Sft, _block_label
from .errors import InvalidArgumentError, NumericError, ThermoshiftError, UnderflowError

if TYPE_CHECKING:
    from .potential import PotentialLC

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    """Flag combination errors that argparse cannot express."""


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage failures exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


# -- input resolution ------------------------------------------------------

def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        raise InvalidArgumentError(f"cannot read {path}: {e}") from e


def _resolve_shift(spec: str) -> Sft:
    if spec in registry.shift_names():
        return registry.get_shift(spec)
    if Path(spec).exists():
        return Sft.from_json(_read_text(spec))
    raise InvalidArgumentError(
        f"'{spec}' is neither a builtin shift ({', '.join(registry.shift_names())}) "
        f"nor an existing file")


def _resolve_potential(args) -> PotentialLC:
    spec = args.potential
    if spec in registry.potential_names():
        phi = registry.get_potential(spec)
        if args.shift is not None:
            declared = _resolve_shift(args.shift)
            if declared != phi.sft:
                raise InvalidArgumentError(
                    f"builtin potential '{spec}' lives on shift "
                    f"'{registry.potential_shift_name(spec)}', not '{args.shift}'")
    else:
        if not Path(spec).exists():
            raise InvalidArgumentError(
                f"'{spec}' is neither a builtin potential "
                f"({', '.join(registry.potential_names())}) nor an existing file")
        if args.shift is None:
            raise UsageError("--shift is required with a potential file")
        sft = _resolve_shift(args.shift)
        from .potential import PotentialLC     # orbits never needs it
        phi = PotentialLC.from_json(_read_text(spec), sft, mode=args.mode)
    if args.k is not None and phi.k != args.k:
        raise InvalidArgumentError(
            f"--k {args.k} does not match the potential window {phi.k}")
    return phi


def _parse_alpha(text: str, exact: bool):
    parts = [p.strip() for p in text.split(",")]
    try:
        if exact:
            return tuple(Fraction(p) for p in parts)
        return tuple(float(p) for p in parts)
    except (ValueError, ZeroDivisionError) as e:
        raise InvalidArgumentError(f"cannot parse direction '{text}': {e}") from e


# -- serialization helpers -------------------------------------------------

def _num(x):
    """JSON-safe number: exact rationals as strings, the rest as floats."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, bool) or x is None:
        return x
    if isinstance(x, numbers.Integral):     # numpy's integers register here
        return int(x)
    return float(x)


def _vec(xs):
    return [_num(x) for x in xs]


def _measure_summary(mu) -> dict:
    return {
        "states": list(mu.state_labels),
        "stationary": [float(p) for p in mu.stationary],
        "entropy": float(mu.entropy),
        "precision": mu.precision,
    }


def _input_hash(command: str, args, phi: PotentialLC | None,
                sft: Sft | None, extra: dict) -> str:
    spec = {
        "command": command,
        "shift": json.loads(sft.to_json()) if sft is not None else None,
        "potential": json.loads(phi.to_json()) if phi is not None else None,
    }
    spec.update(extra)
    blob = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _emit(args, command: str, input_hash: str, payload: dict, warnings: list,
          csv_header: list | None = None, csv_rows: list | None = None) -> int:
    envelope = {
        "tool": "thermoshift",
        "version": __version__,
        "command": command,
        "input_hash": input_hash,
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "warnings": warnings,
        "payload": payload,
    }
    try:
        text = json.dumps(envelope, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:          # strict JSON has no inf or nan: they go as text
        text = json.dumps(_finite(envelope), indent=2, sort_keys=True, allow_nan=False)
    text += "\n"
    if args.out:
        outdir = Path(args.out)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
            atomic_write_text(outdir / f"{command}.json", text)
            if csv_header is not None:
                buf = io.StringIO()
                writer = csv.writer(buf, lineterminator="\n")
                writer.writerow(csv_header)
                writer.writerows(csv_rows or [])
                atomic_write_text(outdir / f"{command}.csv", buf.getvalue())
        except OSError as e:
            raise InvalidArgumentError(f"cannot write {outdir}: {e}") from None
    sys.stdout.write(text)
    return EXIT_OK


def _finite(x):
    """x with each float that is not finite written as the text that
    float() reads back: "inf", "-inf" or "nan"."""
    if isinstance(x, float) and not math.isfinite(x):
        return str(x)
    if isinstance(x, dict):
        return {k: _finite(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite(v) for v in x]
    return x


# -- commands --------------------------------------------------------------

def _cmd_orbits(args) -> int:
    sft = _resolve_shift(args.shift)
    orbits = cached_elementary_orbits(sft, args.k)
    hist: dict[int, int] = {}
    for o in orbits:
        hist[o.period] = hist.get(o.period, 0) + 1
    payload = {
        "shift": {"d": sft.d, "labels": list(sft.labels)},
        "k": args.k,
        "count": len(orbits),
        "histogram": [[p, hist[p]] for p in sorted(hist)],
        "orbits": [{"period": o.period, "segment": _block_label(o.segment)}
                   for o in orbits],
    }
    h = _input_hash("orbits", args, None, sft, {"k": args.k})
    return _emit(args, "orbits", h, payload, [])


def _cmd_rotset(args) -> int:
    from .rotation_geometry import rotation_set
    phi = _resolve_potential(args)
    poly = rotation_set(phi)
    payload = {
        "m": poly.m,
        "affine_dim": poly.affine_dim,
        "vertices": [_vec(v) for v in poly.vertices],
        "facets": [{"vertex_ids": list(f.vertex_ids), "normal": _vec(f.normal),
                    "offset": _num(f.offset)}
                   for f in poly.facets],
    }
    h = _input_hash("rotset", args, phi, phi.sft, {})
    return _emit(args, "rotset", h, payload, [])


def _cmd_classify(args) -> int:
    # the solving modules load numpy, which orbits, rotset and cohom never need
    from .zero_temperature import (CASE_MULTI_COMPONENT, classify,
                                   symmetry_coefficients)
    phi = _resolve_potential(args)
    if phi.m != 1:
        raise InvalidArgumentError("classify takes a scalar potential; "
                                   "use --alpha with facecurve for vectors")
    res = classify(phi)
    warnings = []
    if res.tolerance_limited:
        warnings.append("entropy tie decided within tolerance only")
    payload = {
        "case": res.case,
        "beta": _num(res.beta),
        "is_whole_shift": res.face.is_whole_shift,
        "constant": _num(res.constant) if res.constant is not None else None,
        "components": [{"id": c.index, "states": list(c.labels()),
                        "entropy": float(c.entropy)}
                       for c in res.face.components],
        "max_entropy_ids": list(res.max_entropy_ids),
    }
    if res.limit is not None:
        payload["limit"] = [{"component": i, "weight": _num(w),
                             "measure": _measure_summary(mu)}
                            for i, (w, mu) in zip(res.max_entropy_ids, res.limit)]
    elif res.case == CASE_MULTI_COMPONENT:
        sym = symmetry_coefficients(phi, res)
        if sym is not None:
            payload["coefficients"] = _vec(sym)
            payload["coefficient_method"] = "symmetry"
        else:
            warnings.append("coefficients undetermined by symmetry; run ztsweep")
    h = _input_hash("classify", args, phi, phi.sft, {})
    return _emit(args, "classify", h, payload, warnings)


def _cmd_ztsweep(args) -> int:
    from .zero_temperature import zt_coefficients    # loads numpy
    phi = _resolve_potential(args)
    if phi.m != 1:
        raise InvalidArgumentError("ztsweep takes a scalar potential")
    res = zt_coefficients(phi, t_max=float(args.tmax), method=args.method)
    ids = list(res.component_ids)
    header = ["t"] + [f"mass_c{i}" for i in ids] + ["boundary_mass"]
    rows = [[t] + [float(m) for m in masses] + [float(b)]
            for t, masses, b in zip(res.t_values, res.mass_history,
                                    res.boundary_history)]
    payload = {
        "case": res.case,
        "method": res.method,
        "component_ids": ids,
        "coefficients": _vec(res.coefficients),
        "est_error": float(res.est_error),
        "converged": res.converged,
        "flags": list(res.flags),
        "csv_header": header,
        "rows": rows,
    }
    if res.limit is not None:
        payload["limit"] = [{"component": i, "weight": _num(w),
                             "measure": _measure_summary(mu)}
                            for i, (w, mu) in zip(ids, res.limit)]
    h = _input_hash("ztsweep", args, phi, phi.sft,
                    {"tmax": args.tmax, "method": args.method})
    return _emit(args, "ztsweep", h, payload, list(res.flags), header, rows)


def _curve_rows(curve, n: int) -> list:
    """Sampled envelope rows: s, ambient point, height, provenance."""
    hull = curve.hull
    e0 = tuple(float(x) for x in curve.e0)
    e1 = tuple(float(x) for x in curve.e1)
    rows = []
    for i in range(n):
        s = i / (n - 1) if n > 1 else 0.0
        j, height = curve._segment(s)
        p = hull[max(j, 0)]
        q = hull[j + 1] if 0 <= j < len(hull) - 1 and abs(p.s - s) >= 1e-12 else p
        prov = str(p.comp) if p.comp == q.comp else "bridge"
        w = tuple(a + s * (b - a) for a, b in zip(e0, e1))
        rows.append([s, *w, float(height), prov])
    return rows


def _cmd_facecurve(args) -> int:
    # numpy loads only when a face component needs a sampled curve
    from .boundary_entropy import differentiability_scan, face_entropy_curve
    phi = _resolve_potential(args)
    exact = phi.mode == "exact" and args.mode != "float"
    alpha = _parse_alpha(args.alpha, exact)
    curve = face_entropy_curve(phi, alpha, n_samples=args.samples)
    scan = differentiability_scan(curve)
    e0f = tuple(float(x) for x in curve.e0)
    e1f = tuple(float(x) for x in curve.e1)
    kinks = []
    for s, jump in scan.kinks:
        near = min(curve.hull, key=lambda p: abs(p.s - s))
        kinks.append({"s": float(s), "slope_jump": float(jump),
                      "w": [a + s * (b - a) for a, b in zip(e0f, e1f)],
                      "component": near.comp})
    payload = {
        "direction": _vec(curve.direction),
        "beta": _num(curve.beta),
        "endpoints": [_vec(curve.e0), _vec(curve.e1)],
        "component_labels": [list(labels) for labels in curve.component_labels],
        "n_samples": curve.n_samples,
        "vmax": curve.vmax,
        "hull": [{"s": p.s, "h": p.h, "component": p.comp, "kind": p.kind}
                 for p in curve.hull],
        "kinks": kinks,
        "kink_threshold": scan.threshold,
        "kink_margin": scan.excluded_margin,
        "smooth": scan.smooth,
    }
    axes = ("x", "y", "z", *range(4, phi.m + 1))[:phi.m]
    header = ["s", *(f"w_{a}" for a in axes), "h_envelope", "component_id_or_bridge"]
    rows = _curve_rows(curve, args.samples)
    payload["csv_header"] = header
    payload["rows"] = rows
    h = _input_hash("facecurve", args, phi, phi.sft,
                    {"alpha": [str(a) for a in alpha], "samples": args.samples})
    return _emit(args, "facecurve", h, payload, [], header, rows)


def _cmd_cohom(args) -> int:
    from .potential import PotentialLC, cohomology_test
    phi = _resolve_potential(args)
    if phi.m != 1:
        raise InvalidArgumentError("cohom takes scalar potentials")
    if args.psi is not None:
        psi_args = argparse.Namespace(potential=args.psi, shift=args.shift,
                                      k=None, mode=args.mode)
        psi = _resolve_potential(psi_args)
        if psi.sft != phi.sft:
            raise InvalidArgumentError("phi and psi live on different shifts")
    else:
        psi = PotentialLC.constant(phi.sft, 0, k=1,
                                   mode="float" if phi.mode == "float" else "exact")
    report = cohomology_test(phi, psi)
    payload = {
        "cohomologous": report.cohomologous,
        "constant": _num(report.constant) if report.constant is not None else None,
        "tolerance_limited": report.tolerance_limited,
        "spread": float(report.spread),
        "witness": None if report.witness is None else {
            "low_orbit": _block_label(report.witness[0]),
            "high_orbit": _block_label(report.witness[1]),
        },
    }
    h = _input_hash("cohom", args, phi, phi.sft,
                    {"psi": json.loads(psi.to_json())})
    return _emit(args, "cohom", h, payload, [])


_HANDLERS = {
    "orbits": _cmd_orbits,
    "rotset": _cmd_rotset,
    "classify": _cmd_classify,
    "ztsweep": _cmd_ztsweep,
    "facecurve": _cmd_facecurve,
    "cohom": _cmd_cohom,
}


# -- parser ----------------------------------------------------------------

def _add_common(sp, with_potential: bool):
    sp.add_argument("--shift", required=not with_potential,
                    help="builtin shift name or shift JSON file")
    sp.add_argument("--k", type=int, required=not with_potential, help="cylinder window")
    sp.add_argument("--mode", choices=("exact", "float"),
                    help="value arithmetic for file inputs (default: as stored)")
    sp.add_argument("--out", help="directory for result files")
    if with_potential:
        sp.add_argument("--potential", required=True,
                        help="builtin potential name or potential JSON file")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="thermoshift",
        description="Zero-temperature limits, rotation sets and boundary "
                    "entropy for locally constant potentials on subshifts "
                    "of finite type.",
        epilog=registry.builtin_summary(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version",
                        version=f"thermoshift {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    sp = sub.add_parser("orbits", help="enumerate elementary periodic orbits")
    _add_common(sp, with_potential=False)

    sp = sub.add_parser("rotset", help="rotation-set polytope of a potential")
    _add_common(sp, with_potential=True)

    sp = sub.add_parser("classify", help="zero-temperature classification")
    _add_common(sp, with_potential=True)

    sp = sub.add_parser("ztsweep", help="finite-t sweep of component masses")
    _add_common(sp, with_potential=True)
    sp.add_argument("--tmax", type=float, default=2.0 ** 14,
                    help="largest inverse temperature (default 2^14)")
    sp.add_argument("--method", choices=("auto", "symmetry", "sweep"),
                    default="sweep", help="coefficient method (default sweep)")

    sp = sub.add_parser("facecurve", help="entropy envelope along a face")
    _add_common(sp, with_potential=True)
    sp.add_argument("--alpha", required=True,
                    help="direction exposing an edge, e.g. 0,-1 or -2,1: a facet "
                         "normal that rotset prints (m = 2), or the sum of the "
                         "normals of two facets that share the edge (m >= 3)")
    sp.add_argument("--samples", type=int, default=201,
                    help="dual grid size per component (default 201)")

    sp = sub.add_parser("cohom", help="cohomology test against a second "
                                      "potential (default: constant zero)")
    _add_common(sp, with_potential=True)
    sp.add_argument("--psi", help="second potential (builtin name or file)")
    return parser


def _join_alpha(argv):
    """argv with ``--alpha -2,1``, or a prefix of --alpha down to --a (no
    other option starts so), joined into ``--alpha=-2,1``: argparse takes
    a token that starts with '-' for an option unless it is one negative
    number, and a direction is several."""
    out = []
    for tok in argv:
        if (out and len(out[-1]) > 2 and "--alpha".startswith(out[-1])
                and re.match(r"-\.?\d", tok)):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_alpha(sys.argv[1:] if argv is None else argv))
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except UsageError as e:
        sys.stderr.write(f"thermoshift {args.command}: error: {e}\n")
        return EXIT_USAGE
    except (UnderflowError, NumericError) as e:
        sys.stderr.write(f"thermoshift {args.command}: numeric error: {e}\n")
        return EXIT_NUMERIC
    except ThermoshiftError as e:
        sys.stderr.write(f"thermoshift {args.command}: input error: {e}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
