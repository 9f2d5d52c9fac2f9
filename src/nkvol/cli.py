"""Command-line front end with deterministic machine-readable reports.

Exit codes: 0 when every verdict passes, 1 when a verdict fails, 2 on input
errors (malformed manifests, unknown files, bad arguments, an output file or
stdout that cannot be written, a non-finite value among the checks), 3 on an
internal error, with the traceback on stderr.  With `--json` the output is a
single report object printed with sorted keys and shortest-round-trip floats, so
identical inputs produce byte-identical output and every number is finite;
wall-clock timing appears only in the human-readable format.

`main()`, the `nkvol` entry point, runs a call with the cyclic garbage collector
off, since a call makes no reference cycles, and ends the process with
`os._exit` once the report is flushed, skipping the interpreter's teardown; so
`atexit` handlers do not run.  `run(argv)` is the in-process interface: it
returns the exit code and leaves the collector as it found it.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import time
from importlib import import_module
from typing import TYPE_CHECKING

try:  # the interpreter's builtin SHA-256: hashlib would map OpenSSL's libcrypto
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .conventions import CATALOG_NAMES, CONSTANTS, TOLERANCES, within
if TYPE_CHECKING:  # numpy and the layers load only in the handlers that compute
    from .frame_manifold import Manifest

__all__ = ["main", "run"]


class InputError(Exception):
    pass


def _load(path: str) -> tuple[Manifest, str]:
    from .frame_manifold import Manifest
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as ex:
        raise InputError(f"cannot read manifest: {ex}") from ex
    digest = sha256(raw).hexdigest()
    try:
        manifest = Manifest.from_json(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError, json.JSONDecodeError) as ex:
        raise InputError(f"malformed manifest {path}: {ex}") from ex
    return manifest, digest


def _acs_of(manifest: Manifest):
    from .acs import AlmostComplexStructure
    if manifest.J is None:
        raise InputError("manifest carries no J matrix")
    try:
        return AlmostComplexStructure(manifest.J)
    except ValueError as ex:
        raise InputError(f"invalid J: {ex}") from ex


def _structure(manifest: Manifest):
    """The algebra and the N* tensor of the manifest's J."""
    from .nijenhuis import nijenhuis_via_brackets
    alg = manifest.algebra()
    return alg, nijenhuis_via_brackets(alg, _acs_of(manifest))


def _pick_omega(nij, manifest: Manifest, st=None):
    """The one pick of omega for every command that reads it, as a gated `HermitianForm`:
    the manifest omega, else the form of st (or of nij's conformal solve), its normalized
    omega or else its positive candidate."""
    from .hermitian_torsion import HermitianForm, conformal_solve
    if manifest.omega is not None:
        return HermitianForm(nij.frame, manifest.omega), "manifest"
    st = st if st is not None else conformal_solve(nij)
    form = st.form(nij.frame)
    if form is None:
        return None, "none available"
    return form, "conformal_solve " + ("normalized" if st.normalizable else "candidate")


# ---------------------------------------------------------------------------
# subcommand handlers: return (checks, verdicts) dictionaries
# ---------------------------------------------------------------------------

def _cmd_check(manifest: Manifest):
    from .acs import j_squared_residual
    from .frame_manifold import check_jacobi
    from .multilinear import two_form_matrices
    alg = manifest.algebra()
    rep = check_jacobi(alg)
    checks = {
        "jacobi_residual_dd": rep.residual_dd,
        "jacobi_residual_bracket": rep.residual_bracket,
    }
    verdicts = {"jacobi": rep.holds}
    if manifest.J is not None:
        if manifest.dimension != 6:
            raise InputError(f"J is supported only in dimension 6, got {manifest.dimension}")
        j_res, scale = j_squared_residual(manifest.J)
        checks["j_squared_residual"] = j_res
        verdicts["j_valid"] = within(j_res, "j_squared", scale)
        if verdicts["j_valid"] and manifest.omega is not None and manifest.metric is not None:
            G = (two_form_matrices(manifest.omega.coeffs, 6) @ manifest.J).real  # omega(., J.)
            verdicts["metric_compatible"] = within(abs(manifest.metric - G).max(), "metric",
                                                   max(1.0, abs(G).max()))
    return checks, verdicts


def _cmd_nijenhuis(manifest: Manifest):
    import numpy as np
    from .nijenhuis import cartan_compatibility, nijenhuis_via_d, volume_form
    alg, nb = _structure(manifest)
    nd = nijenhuis_via_d(alg, nb.frame.J, frame=nb.frame)
    agree = float(np.max(np.abs(nb.matrix - nd.matrix)))
    scale = max(1.0, float(np.max(np.abs(nb.matrix))))
    vd = volume_form(nb)
    checks = {
        "route_agreement_residual": agree / scale,
        "det_abs": float(abs(np.linalg.det(nb.matrix))),
        "psi": vd.psi,
        "nondegenerate": nb.nondegenerate,
    }
    form, source = _pick_omega(nb, manifest)
    verdicts = {"routes_agree": within(agree, "routes_agree", scale)}
    if form is not None:
        checks["cartan_residual"] = cartan_compatibility(alg, nb, form)
        checks["cartan_omega_source"] = source
        verdicts["cartan_identity"] = within(checks["cartan_residual"], "cartan")
    return checks, verdicts


def _cmd_torsion(manifest: Manifest):
    import numpy as np
    from .hermitian_torsion import conformal_solve, norm30_sq, torsion_criterion
    from .nijenhuis import rho_skew_coefficient
    nij = _structure(manifest)[1]
    st = conformal_solve(nij)
    checks = {
        "solution_dimension": int(st.solution_dimension),
        "candidate_positive": bool(st.positive),
        "candidate_residual": float(st.candidate_residual),
        "singular_values": [float(x) for x in st.singular_values],
    }
    form, source = _pick_omega(nij, manifest, st)
    if form is None:
        raise InputError("no positive Hermitian candidate available for the criterion")
    crit = torsion_criterion(nij, form)
    checks.update({
        "omega_source": source,
        "skewness_residual": crit.skewness_residual,
        "rho_norm": crit.rho_norm,
    })
    verdicts = {"admits_connection": crit.admits_connection}
    if st.normalizable:  # |P|^2 of the normalized omega = n2 i H
        W = st.n2 * st.hermitian
        n2 = norm30_sq(rho_skew_coefficient(1j * W, st.M), np.linalg.det(W).real)
        checks["normalized_gauge_residual"] = float(abs(n2 - 1.0))
    return checks, verdicts


def _cmd_nk(manifest: Manifest):
    from .nk_su3 import nk_equivalence_suite
    alg, nij = _structure(manifest)
    form, source = _pick_omega(nij, manifest)
    if form is None:
        raise InputError("no positive Hermitian candidate available for the suite")
    suite = nk_equivalence_suite(alg, nij, form)
    checks = {
        "omega_source": source,
        "skewness_residual": suite.skewness_residual,
        "offshape_residual": suite.offshape_residual,
        "lambda": suite.lam,
        "degenerate": suite.degenerate,
        "hypothesis_ok": suite.hypothesis_ok,
        "nabla_antisymmetry_residual": suite.nabla_report.antisymmetry_residual,
        "nabla_identification_residual": suite.nabla_report.identification_residual,
        "strictness_min": suite.nabla_report.strictness_min,
    }
    if suite.equation_report is not None:
        checks["structure_equation_residuals"] = list(suite.equation_report)
    verdicts = {
        "torsion_criterion": suite.torsion_ok,
        "structure_equations": suite.equations_ok,
        "nabla_antisymmetric_strict": suite.nabla_ok,
        "suite_consistent": suite.consistent(),
    }
    return checks, verdicts


def _cmd_cone(manifest: Manifest):
    from .acs import split_30
    from .hermitian_torsion import norm30_sq
    from .nk_su3 import SU3Structure, solve_Omega
    from .g2_cone import fernandez_gray_check, metric_roundtrip, normalize_to_unit_lambda
    alg, nij = _structure(manifest)
    form, source = _pick_omega(nij, manifest)
    if form is None:
        raise InputError("no positive Hermitian candidate available for the cone")
    solved = solve_Omega(alg, nij, form)
    if manifest.Omega3 is not None:  # a unit (3,0)-form: c theta^123, c = Omega3(v_1, v_2, v_3)
        fr, O3 = nij.frame, manifest.Omega3
        c = split_30(O3.coeffs, fr.theta_coeffs, fr.v_coords)[0]
        if not within((O3 - c * fr.theta_top()).norm(), "pure_bidegree", max(1.0, O3.norm())):
            raise InputError("manifest Omega3 fails the pure_bidegree gate: not a (3,0)-form for J")
        defect = abs(norm30_sq(c, form.read_in(fr).det) - 1.0)
        if not within(defect, "unit_norm"):
            raise InputError(f"manifest Omega3 fails the unit_norm gate: ||Omega3|^2 - 1| = {defect:g}")
    if not solved.ok:
        return (
            {"omega_source": source, "offshape_residual": solved.offshape_residual,
             "reason": solved.reason},
            {"shape_equations": False},
        )
    Omega = manifest.Omega3 if manifest.Omega3 is not None else solved.Omega
    unit = normalize_to_unit_lambda(SU3Structure(form, Omega, solved.lam))
    fg = fernandez_gray_check(alg, unit)
    mr = metric_roundtrip(alg, unit)
    checks = {
        "omega_source": source,
        "lambda": solved.lam,
        "d_rho_residual": fg.d_rho_residual,
        "dstar_rho_residual": fg.dstar_rho_residual,
        "star_formula_residual": fg.star_formula_residual,
        "stabilizer_dimension": mr.stabilizer_dimension,
    }
    if mr.stable:  # an unstable cone 3-form induces no metric to compare
        checks.update({"roundtrip_ratio": mr.ratio, "roundtrip_spread": mr.ratio_spread})
    verdicts = {
        "shape_equations": True,
        "closed": fg.closed,
        "coclosed": fg.coclosed,
        "dual_formula": within(fg.star_formula_residual, "cone_dual_formula"),
        "stable": mr.stable,
        "stabilizer_14": bool(mr.stabilizer_dimension == 14),
        "metric_proportional": mr.stable and within(mr.ratio_spread, "cone"),
    }
    return checks, verdicts


def _cmd_functional(manifest: Manifest, gradient: bool):
    from .nijenhuis import volume_form
    from .variation_opt import criticality_test, psi_gradient
    alg, nij = _structure(manifest)
    checks = {"psi": volume_form(nij).psi}
    form = _pick_omega(nij, manifest)[0]  # a malformed manifest omega raises here, not below
    try:
        crit = criticality_test(alg, nij, form)
    except ValueError as ex:
        if gradient:
            raise InputError(f"gradient undefined: {ex}") from ex
        return checks, {}  # no candidate omega: psi alone
    checks["criticality_residual"] = crit.residual
    checks["criticality_verdict"] = crit.verdict
    if gradient:
        if crit.verdict == "degenerate":
            raise InputError("gradient undefined: Nijenhuis tensor degenerate")
        grad = psi_gradient(alg, nij, form)
        checks["gradient_components"] = grad.tolist()
        checks["gradient_max_abs"] = float(abs(grad).max())
    return checks, {}


def _cmd_optimize(manifest: Manifest, max_iter: int, seed: int, emit: str | None):
    from .variation_opt import find_critical
    alg = manifest.algebra()
    J = _acs_of(manifest)
    res = find_critical(alg, J, max_iter=max_iter, seed=seed)
    checks = {
        "iterations": res.iterations,
        "trace": res.trace,
        "final_objective": res.trace[-1] if res.trace else None,
        "reason": res.reason,
        "monotone": bool(all(res.trace[i + 1] <= res.trace[i]
                             for i in range(len(res.trace) - 1))),
        "records": [r._asdict() for r in res.records],
    }
    verdicts = {"converged": res.converged}
    if res.converged and res.suite is not None:
        verdicts["nk_suite"] = res.suite.all_true
        checks["psi_final"] = res.psi
        checks["lambda"] = res.suite.lam
        checks["psi_gradient_max_abs"] = res.psi_gradient_max_abs
    if emit and res.converged:
        out = manifest._replace(name=manifest.name + "_critical", J=res.J.matrix,
                                metric=res.form.metric.matrix, omega=res.form.omega,
                                Omega3=res.suite.Omega)
        out.save(emit)
        checks["emitted"] = emit
    return checks, verdicts


def _cmd_alt12(manifest: Manifest):
    from .hermitian_torsion import alt12_analysis
    rep = alt12_analysis(_acs_of(manifest))
    checks = rep._asdict()
    verdicts = {
        "alt12_isomorphism": rep.rank_full == 90,
        "alt12_injective_hermitian": rep.rank_hermitian == 54,
        "alt12_cokernel_spans": rep.span_with_cokernel == rep.target_dimension == 72,
    }
    return checks, verdicts


# subcommand -> (its help text; its top layer, which imports the layers below it; its handler).
# run() imports the layers before it reads the manifest, so they compile on a small heap
_COMMANDS = {
    "check": ("Jacobi gate and J validity", "frame_manifold", lambda m, a: _cmd_check(m)),
    "nijenhuis": ("two-route tensor, determinant, volume density", "hermitian_torsion",
                  lambda m, a: _cmd_nijenhuis(m)),
    "torsion": ("skew-torsion criterion and conformal solve", "hermitian_torsion",
                lambda m, a: _cmd_torsion(m)),
    "nk": ("three-way equivalence suite", "nk_su3", lambda m, a: _cmd_nk(m)),
    "cone": ("cone 3-form: stability, harmonicity, metric roundtrip", "g2_cone",
             lambda m, a: _cmd_cone(m)),
    "alt12": ("antisymmetrization-operator ranks", "hermitian_torsion",
              lambda m, a: _cmd_alt12(m)),
    "functional": ("volume density and optional gradient", "variation_opt",
                   lambda m, a: _cmd_functional(m, a.gradient)),
    "optimize": ("search for a critical structure", "variation_opt",
                 lambda m, a: _cmd_optimize(m, a.max_iter, a.seed, a.emit)),
}


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def _finite(value) -> bool:
    """False when a float anywhere inside `value` is NaN or infinite."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return all(_finite(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


def _emit_report(report: dict, as_json: bool, elapsed: float) -> None:
    if as_json:
        # numpy scalars other than floats (bool_, integers) through .item()
        print(json.dumps(report, indent=2, sort_keys=True, default=lambda x: x.item()))
        return
    print(f"command: {report['command']}")
    if "manifest" in report:
        print(f"manifest: {report['manifest']['name']} ({report['manifest']['sha256'][:12]})")
    if "error" in report:
        print(f"error: {report['error']}")
    for key, val in report.get("checks", {}).items():
        print(f"  {key}: {_human(val)}")
    for key, val in report.get("verdicts", {}).items():
        print(f"  [{'PASS' if val else 'FAIL'}] {key}")
    print(f"elapsed: {elapsed:.3f}s")


def _human(val):
    if isinstance(val, list) and val and isinstance(val[0], dict):
        return f"[{len(val)} records]"
    if isinstance(val, float):
        return f"{val:.6g}"
    if isinstance(val, (list, tuple)) and val and isinstance(val[0], float):
        if len(val) > 8:
            return "[" + ", ".join(f"{v:.6g}" for v in val[:8]) + ", ...]"
        return "[" + ", ".join(f"{v:.6g}" for v in val) + "]"
    return val


def _build_parser() -> argparse.ArgumentParser:
    # --json is accepted anywhere on the line; it is stripped by run() before
    # parsing, so it appears here only for the help text
    p = argparse.ArgumentParser(prog="nkvol",
                                description="checks and optimization for invariant "
                                            "almost complex structures on coframe models")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report output (accepted with any subcommand)")
    sub = p.add_subparsers(dest="command", required=True)

    cat = sub.add_parser("catalog", help="built-in model catalog")
    catsub = cat.add_subparsers(dest="catalog_command", required=True)
    catsub.add_parser("list", help="list catalog names")
    emit = catsub.add_parser("emit", help="write a catalog manifest")
    emit.add_argument("name")
    emit.add_argument("--seed", type=int, default=None)
    emit.add_argument("--magnitude", type=float, default=0.05)
    emit.add_argument("--out", default=None)

    for name, (helptext, *_) in _COMMANDS.items():
        sub.add_parser(name, help=helptext).add_argument("file")
    sub.choices["functional"].add_argument("--gradient", action="store_true")
    opt = sub.choices["optimize"]
    opt.add_argument("--max-iter", type=int, default=100)
    opt.add_argument("--seed", type=int, default=0)
    opt.add_argument("--emit", default=None, help="write the solved manifest here")
    return p


def run(argv: list[str]) -> int:
    argv = list(argv)
    as_json = "--json" in argv
    argv = [a for a in argv if a != "--json"]
    try:  # the parser is not kept: it is garbage before a subcommand compiles its layers
        args = _build_parser().parse_args(argv)
    except SystemExit as ex:
        return 2 if ex.code not in (0, None) else 0
    gc.collect(0)  # free the parser's cycles now: main() runs with the collector off
    started = time.monotonic()

    report: dict = {"command": args.command, "constants": CONSTANTS, "tolerances": TOLERANCES}
    try:
        verdicts = {}  # a catalog call has none
        if args.command in _COMMANDS:
            _, layer, handler = _COMMANDS[args.command]
            import_module(f".{layer}", __package__)
            manifest, digest = _load(args.file)
            report["manifest"] = {"name": manifest.name, "sha256": digest}
            checks, verdicts = handler(manifest, args)
            bad = [key for key, value in checks.items() if not _finite(value)]
            if bad:
                raise InputError(f"non-finite values in checks: {', '.join(bad)}")
        elif args.catalog_command == "list":
            checks = {"catalog": list(CATALOG_NAMES)}
        else:
            from .frame_manifold import catalog
            try:
                manifest = catalog(args.name, seed=args.seed, magnitude=args.magnitude)
            except ValueError as ex:
                raise InputError(str(ex)) from ex
            if args.out:
                manifest.save(args.out)
                checks = {"written": args.out, "name": manifest.name}
            else:
                checks = {"manifest": manifest.to_dict()}
    except InputError as ex:
        report["error"], code = str(ex), 2
    except ValueError as ex:
        report["error"], code = f"invalid input: {ex}", 2
    except OSError as ex:  # manifests are read in _load, so this is a write
        report["error"], code = f"cannot write {ex.filename}: {ex.strerror}", 2
    except Exception as ex:
        report["error"], code = f"internal error: {type(ex).__name__}: {ex}", 3
        import traceback
        traceback.print_exc()
    else:
        report["checks"], report["verdicts"] = checks, verdicts
        code = 0 if all(verdicts.values()) else 1
    if sys.stdout is None:  # descriptor 1 was closed at start: unwritable output
        return 2
    try:
        _emit_report(report, as_json, time.monotonic() - started)
        sys.stdout.flush()
    except BrokenPipeError:
        # a closed stdout is unwritable output; on devnull the interpreter's
        # last flush of the pending report cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return code


def main() -> None:
    gc.disable()
    code = run(sys.argv[1:])
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # None when the descriptor was closed at start
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
