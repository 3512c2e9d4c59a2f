"""Command-line front end.

Subcommands
-----------
optimize    run the one point of a JSON config; print its result row and
            optionally save the optimized program state
benchmark   sweep a channel-parameter, port-count and method grid, write a CSV
verify      run the built-in invariant suite (levels: fast, full)
channels    list the channel zoo
processors  list processor kinds and their size caps

``optimize`` and ``benchmark`` share one run path: a config's points are the
(N, value, method) grid of ``processor.N``, ``channel.values`` and
``methods``, and ``optimize`` runs a config with exactly one.  The run has two
phases.  Set-up reads the config, builds each N's processor, the run's
optimizer settings and each point's channel, and checks every point; all of it
comes before the CSV header, so a validation error prints no row.  The run
phase only times and calls each point's method, printing the header (plus wall
time) and a row per point: a point can fail only numerically, which is
reported while the others run (exit 2).  Each processor and channel kind is one
entry of ``PROCESSORS`` or ``CHANNELS``.

Exit codes: 0 ok, 1 validation error (a missing or unknown key, a section or
value of the wrong JSON type, a value that the library rejects, optimizer
settings included, or a method that the point's processor or channel does not
admit), 2 numerical failure, 3 verify failure.

``main(argv)`` may be called repeatedly in one process: it builds the parser
once, on the first call.

The config file is a single JSON document; matrices are given as nested
[re, im] pairs.  CSV cells use 12 significant digits and rows follow grid
order, so identical config + seed reproduces byte-identical files.  (Wall
times are streamed to stdout only; they are excluded from the CSV to keep
it deterministic.)
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass
from functools import cache, partial, reduce
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import channels as ch
from . import optim, processors, rand, sdp
from .channels import cost_eval
from .hermlin import herm_eig, partial_trace, schatten_norm
from .processors import CapacityError, ProcessorMap

CSV_HEADER = "param,method,N,cost_kind,cost,iterations"


class Kind(NamedTuple):
    make: str  # the library constructor, looked up on its module per call, so patches hold
    keys: Tuple[str, ...]  # its config keys, in its argument order
    cap: str = ""  # a processor's size cap, as `qprogopt processors` lists it


PROCESSORS = {
    "teleportation": Kind("teleportation_processor", ("d",),
                          f"2 <= d <= {processors.TELEPORTATION_MAX_D}"),
    "pbt": Kind("pbt_processor", ("N", "d"),
                f"program dim d^(2N) <= {processors.PBT_FULL_MAX_PROG_DIM}"),
    "pbt_reduced": Kind("pbt_reduced_map", ("N", "d"),
                        f"N <= {processors.PBT_REDUCED_MAX_PORTS}, "
                        f"d <= {processors.TELEPORTATION_MAX_D}"),
    "pqc": Kind("pqc_processor", ("N", "H0", "H1"), f"N <= {processors.PQC_MAX_GATES}"),
    "mpqc": Kind("mpqc_processor", ("N", "H0", "H1"), f"N <= {processors.MPQC_MAX_GATES}"),
}
# a channel's first key is its parameter; a scalar one may be swept by ``values``
CHANNELS = {
    "amplitude_damping": Kind("amplitude_damping", ("p",)),
    "depolarizing": Kind("depolarizing", ("p", "d")),
    "dephasing": Kind("dephasing", ("p",)),
    "pauli": Kind("pauli_channel", ("probs",)),
    "rotation": Kind("rotation", ("theta",)),
    "unitary": Kind("unitary_channel", ("matrix",)),
}
_SCALARS = ("p", "theta")

# the keys a config may hold, per section ("" is the top level) and, for the
# processor and channel sections, per kind; any other key is a ConfigError
CONFIG_KEYS = {
    "": {"processor", "channel", "method", "methods", "cost", "mu", "seed", "optimizer",
         "out", "gnuplot_out", "save_program"},
    "processor": {kind: {"kind", *entry.keys} for kind, entry in PROCESSORS.items()},
    "channel": {kind: {"kind", *entry.keys, *(("values",) if entry.keys[0] in _SCALARS else ())}
                for kind, entry in CHANNELS.items()},
    "optimizer": {"max_iters", "learning_rate", "tolerance", "init"},
    "optimizer.learning_rate": {"kind", "a", "b"},
}
# the channel costs but Cp (its order has no config key), and the diamond cost
COST_KINDS = tuple(kind for kind in ch.COST_KINDS if kind != "Cp") + ("Cdiamond",)


class ConfigError(ValueError):
    pass


# the exceptions reported as a numerical failure (exit 2), but for ConfigError and
# CapacityError: ValueErrors too, they are validation errors (exit 1)
_NUMERICAL = (np.linalg.LinAlgError, RuntimeError, ValueError)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _parse_complex_matrix(data) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"matrix entries must be nested [re, im] pairs: {exc}")
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ConfigError(f"matrix must have shape (n, n, 2), got {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def _number(value, key: str, kind=int):
    """``kind(value)``, or a ConfigError naming the key if that fails, changes a float or
    meets NaN."""
    if isinstance(value, float) and math.isnan(value):
        raise ConfigError(f"{key} must not be NaN")
    try:
        out = kind(value)
    except (TypeError, ValueError):
        out = None
    if out is None or (isinstance(value, float) and out != value):
        raise ConfigError(f"{key} must be {kind.__name__}, got {value!r}")
    return out


def _construct(make, *args, **kwargs):
    """``make(*args, **kwargs)``; the ValueError with which a library constructor rejects
    a value becomes a ConfigError with its message.  A CapacityError passes."""
    try:
        return make(*args, **kwargs)
    except CapacityError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _known_keys(spec: dict, name: str, known, suffix: str = "") -> None:
    """A ConfigError naming the first key of section ``name`` not in ``known``."""
    for key in spec:
        if key not in known:
            full = f"{name}.{key}" if name else key
            raise ConfigError(f"unknown key {full!r}{suffix}")


def _section(cfg: dict, key: str, name: str) -> dict:
    """The object under ``key`` (empty if absent), or a ConfigError naming section
    ``name``, its kind where its keys are per kind, or its first unknown key."""
    spec = cfg.get(key, {})
    if not isinstance(spec, dict):
        raise ConfigError(f"{name} must be an object, got {spec!r}")
    known, suffix = CONFIG_KEYS[name], ""
    if isinstance(known, dict):  # keys per kind
        kind = spec.get("kind")
        if not isinstance(kind, str) or kind not in known:
            raise ConfigError(f"{name}.kind {kind!r} not one of {list(known)}")
        known, suffix = known[kind], f" for {name} kind {kind!r}"
    _known_keys(spec, name, known, suffix)
    return spec


def _arg(section: str, key: str, value):
    """The constructor argument of config key ``section.key`` (``value`` None if absent):
    a matrix from its [re, im] pairs, ``d`` as an integer (2 if absent); N and a scalar
    channel parameter, parsed with the grid, and pauli's ``probs`` pass as they are."""
    if key in ("H0", "H1", "matrix"):
        return None if value is None else _parse_complex_matrix(value)
    if key == "d":
        return _number(2 if value is None else value, f"{section}.d")
    return value


def _make(module, entry: Kind, section: str, spec: dict):
    """``entry``'s constructor, looked up on ``module``, on its keys' arguments in ``spec``."""
    return _construct(getattr(module, entry.make),
                      *(_arg(section, key, spec.get(key)) for key in entry.keys))


def _build_processor(spec: dict, n: int) -> ProcessorMap:
    return _make(processors, PROCESSORS[spec["kind"]], "processor", {**spec, "N": n})


def _build_channel(spec: dict, value) -> ch.KrausChannel:
    """The channel of a ``channel`` section with ``value`` for its parameter."""
    entry = CHANNELS[spec["kind"]]
    return _make(ch, entry, "channel", {**spec, entry.keys[0]: value})


def _settings(args, cfg: dict, methods) -> dict:
    """The settings every point of a run shares, each checked once, whatever the methods:
    ``cost``, ``mu``, ``--tol`` and the run's one ``OptimConfig``, of the ``optimizer``
    section, the seed (``--seed``, else ``seed``), ``mu`` and the run's cost where it
    takes it (else its default cost)."""
    seed = args.seed if args.seed is not None else cfg.get("seed")
    cost_kind = cfg.get("cost", "C1")
    if cost_kind not in COST_KINDS:
        raise ConfigError(f"cost {cost_kind!r} not one of {COST_KINDS}")
    mu = _number(cfg.get("mu", optim.OptimConfig.mu), "mu", float)
    # a first-order method reads the run's cost from the optimizer; a gradient cost goes
    # there in any case, which checks Cmu's mu for every method
    gradient = cost_kind in optim.GRAD_COST_KINDS or {"subgradient", "frank_wolfe"} & set(methods)
    oc = cfg.get("optimizer", {})
    lr = oc.get("learning_rate", {})
    if oc.get("init") == "random" and seed is None:
        raise ConfigError("optimizer.init 'random' is stochastic: a seed is mandatory")
    config, rate = optim.OptimConfig, optim.LearningRate  # their defaults fill absent keys
    optimizer = _construct(
        config,
        max_iters=_number(oc.get("max_iters", config.max_iters), "optimizer.max_iters"),
        learning_rate=_construct(
            rate,
            kind=lr.get("kind", rate.kind),
            a=_number(lr.get("a", rate.a), "optimizer.learning_rate.a", float),
            b=_number(lr.get("b", rate.b), "optimizer.learning_rate.b", float),
        ),
        tolerance=_number(oc.get("tolerance", config.tolerance), "optimizer.tolerance", float),
        cost_kind=cost_kind if gradient else config.cost_kind,
        mu=mu,
        seed=0 if seed is None else _number(seed, "seed"),
        init=oc.get("init", config.init),
    )
    return dict(optimizer=optimizer, cost_kind=cost_kind, mu=mu, tol=args.tol)


@dataclass
class ResultRow:
    param: float
    method: str
    n_ports: int
    cost_kind: str
    cost: float
    iterations: int
    wall_time: float
    program: Optional[np.ndarray] = None

    def csv(self) -> str:
        return ",".join(
            [
                _fmt(self.param),
                self.method,
                str(self.n_ports),
                self.cost_kind,
                _fmt(self.cost),
                str(self.iterations),
            ]
        )


def _first_order(runner: str, optimizer, proc, chi_e, **_):
    res = getattr(optim, runner)(proc, chi_e, optimizer)
    return optimizer.cost_kind, res.final_cost, len(res.cost_trace) - 1, res.program.matrix


def _sdp_program(name: str, kind: str, proc, chi_e, tol, **_):
    prog, val = getattr(sdp, name)(proc, chi_e, tol=tol)
    return kind, val, 0, prog.matrix


def _closed_form_unitary(proc, channel, chi_e, **_):
    prog = optim.learn_unitary_program(proc, channel.kraus_ops[0])
    return "CF", cost_eval("CF", chi_e, proc.apply_matrix(prog.matrix)), 0, prog.matrix


def _choi_baseline(cfg, proc, n_ports, chi_e, cost_kind, mu, tol, **_):
    """``cost_kind`` at the channel's-Choi program: chi, or chi^(tensor N) for PBT."""
    prog = reduce(np.kron, [chi_e] * (n_ports if cfg["processor"]["kind"] == "pbt" else 1))
    chi_pi = proc.apply_matrix(prog)
    if cost_kind == "Cdiamond":
        val = sdp.diamond_distance(chi_e - chi_pi, proc.d_in, tol=tol)
    else:
        val = cost_eval(cost_kind, chi_e, chi_pi, mu=mu)
    return cost_kind, val, 0, prog


# Each method takes a grid point's values by keyword and returns (cost kind, cost,
# iterations, program); it looks library functions up per call, so patches hold.
# Set-up has checked that the point admits it (``_checked_channel``): it raises no
# ConfigError.
METHODS = {
    "subgradient": partial(_first_order, "projected_subgradient"),
    "frank_wolfe": partial(_first_order, "frank_wolfe"),
    "sdp_diamond": partial(_sdp_program, "optimize_program_diamond", "Cdiamond"),
    "sdp_trace": partial(_sdp_program, "optimize_program_trace", "C1"),
    "sdp_fidelity": partial(_sdp_program, "optimize_program_fidelity", "F"),
    "closed_form_unitary": _closed_form_unitary,
    "choi_baseline": _choi_baseline,
}


def _checked_channel(cfg: dict, value, method: str, proc: ProcessorMap) -> ch.KrausChannel:
    """The channel of a point's ``value``, or a ConfigError if the channel or the point's
    method does not fit the point's processor ``proc``."""
    channel = _build_channel(cfg["channel"], value)
    if channel.d_in != proc.d_in:
        raise ConfigError(f"channel dimension {channel.d_in} != processor dimension {proc.d_in}")
    if method == "closed_form_unitary" and len(channel.kraus_ops) != 1:
        raise ConfigError("closed_form_unitary needs a unitary target channel")
    kind = cfg["processor"]["kind"]
    if method == "choi_baseline" and kind not in ("teleportation", "pbt_reduced", "pbt"):
        raise ConfigError(f"choi_baseline is not defined for processor kind {kind!r}")
    if method == "frank_wolfe" and proc.program_domain == "choi":
        raise ConfigError(f"frank_wolfe is not defined for processor kind {kind!r}, whose "
                          "programs are Choi matrices; use subgradient")
    return channel


def _run_point(cfg: dict, point: tuple, proc: ProcessorMap, channel, **settings) -> ResultRow:
    """The row of one checked (N, value, method) point on its processor and channel;
    ``settings`` (cost_kind, mu, tol, optimizer) hold for the whole run."""
    t0 = time.perf_counter()
    n_ports, value, method = point
    kind, cost, iterations, program = METHODS[method](
        cfg=cfg, proc=proc, n_ports=n_ports, channel=channel,
        chi_e=ch.choi_of_channel(channel).matrix, **settings)
    # a pauli or unitary channel's parameter is no number: its rows read nan
    param = value if isinstance(value, float) else math.nan
    return ResultRow(param, method, n_ports, kind, cost, iterations, time.perf_counter() - t0,
                     program)


def _save_program(path: str, matrix: np.ndarray, structure: str, cfg: dict) -> None:
    digest = hashlib.sha256(
        json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]
    header = (
        f"dims: {matrix.shape[0]} {matrix.shape[1]}\n"
        f"structure: {structure}\n"
        f"config-hash: {digest}"
    )
    np.savetxt(path, matrix, header=header)


def load_program(path: str) -> np.ndarray:
    return np.loadtxt(path, dtype=complex)


def _load_config(path: Optional[str]) -> dict:
    """The config at ``path``, every section and key of it checked; later code reads
    the sections directly."""
    if not path:
        raise ConfigError("--config PATH is required for this subcommand")
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON (line {exc.lineno}): {exc.msg}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"config must be a JSON object, got {cfg!r}")
    _known_keys(cfg, "", CONFIG_KEYS[""])
    if "channel" not in cfg:
        raise ConfigError("config needs a 'channel' section")
    for key in ("processor", "channel"):
        _section(cfg, key, key)
    _section(_section(cfg, "optimizer", "optimizer"), "learning_rate", "optimizer.learning_rate")
    for key in ("out", "gnuplot_out", "save_program"):
        if key in cfg and not (isinstance(cfg[key], str) and cfg[key]):
            raise ConfigError(f"{key} must be a non-empty file path, got {cfg[key]!r}")
    return cfg


def _points(cfg: dict) -> List[tuple]:
    """The (N, value, method) points of a loaded config in grid order: N over
    ``processor.N`` (default 1), the channel's parameter over ``channel.values``
    (else its own) and the method over ``methods`` (else ``method``), each a
    grid where it is a list."""
    n_list = cfg["processor"].get("N", 1)
    if not isinstance(n_list, list):
        n_list = [n_list]
    elif not n_list:
        raise ConfigError("processor.N grid is empty")
    n_list = [_number(n, "processor.N") for n in n_list]
    spec = cfg["channel"]
    key = CHANNELS[spec["kind"]].keys[0]
    if "values" in spec:
        values = spec["values"]
        if not isinstance(values, list) or not values:
            raise ConfigError(f"channel.values must be a non-empty list, got {values!r}")
    elif key in spec:
        values = [spec[key]]
    else:
        raise ConfigError(f"channel.{key} is required for channel kind {spec['kind']!r}")
    if key in _SCALARS:
        values = [_number(value, f"channel.{key}", float) for value in values]
    methods = cfg.get("methods", [cfg["method"]] if "method" in cfg else None)
    if methods is None:
        raise ConfigError("config needs 'methods' (or 'method')")
    if not isinstance(methods, list) or not methods:
        raise ConfigError(f"methods must be a list of method names, got {methods!r}")
    if "method" in cfg and methods != [cfg["method"]]:
        raise ConfigError(f"method {cfg['method']!r} and methods {methods!r} disagree")
    for method in methods:
        if not isinstance(method, str) or method not in METHODS:
            raise ConfigError(f"unknown method {method!r}; expected one of {list(METHODS)}")
    return [(n, value, method) for n in n_list for value in values for method in methods]


def cmd_run(args) -> int:
    """``optimize`` and ``benchmark``.  Set-up builds and checks every input of the run;
    then each point runs in grid order, a row per point on stdout, and the outputs are
    written.  A numerical failure at a point is reported and the run goes on (exit 2);
    any other exception propagates."""
    cfg = _load_config(args.config)
    points = _points(cfg)
    if len(points) != 1 and (args.command == "optimize" or "save_program" in cfg):
        what = "optimize" if args.command == "optimize" else "save_program"
        raise ConfigError(f"{what} needs a config with one point, got {len(points)} from "
                          "processor.N, channel.values and methods")
    methods = [method for _, _, method in points]
    settings = _settings(args, cfg, methods)
    n_list = dict.fromkeys(n for n, _, _ in points)  # each N once, in grid order
    procs = {n: _build_processor(cfg["processor"], n) for n in n_list}
    channels = [_checked_channel(cfg, value, method, procs[n]) for n, value, method in points]
    if "frank_wolfe" in methods and settings["optimizer"].cost_kind == "C1":
        print("warning: frank_wolfe with the non-smooth C1 cost may stall; consider cost 'Cmu'",
              file=sys.stderr)
    print(CSV_HEADER + ",wall_time_s")
    rows = []
    for point, channel in zip(points, channels):
        try:
            row = _run_point(cfg, point, procs[point[0]], channel, **settings)
        except _NUMERICAL as exc:  # recorded; the other points still run
            print(f"numerical failure: {exc} at point {point}", file=sys.stderr)
            continue
        rows.append(row)
        print(row.csv() + "," + _fmt(row.wall_time))
    _write_outputs(args, cfg, rows)
    if "save_program" in cfg and rows:
        structure = "choi-power" if procs[points[0][0]].program_domain == "choi" else "generic"
        # the flags that change the program are hashed with the config; without them
        # the hash is the config's own
        given = {"seed": args.seed, "tol": None if args.tol == sdp.DEFAULT_TOL else args.tol}
        _save_program(cfg["save_program"], rows[0].program, structure,
                      cfg | {key: value for key, value in given.items() if value is not None})
    return 2 if len(rows) < len(points) else 0


def _write_outputs(args, cfg: dict, rows: List[ResultRow]) -> None:
    """The CSV (``--out`` or ``out``) and gnuplot (``--gnuplot`` or ``gnuplot_out``) files."""
    out = args.out or cfg.get("out")
    if out:
        with open(out, "w") as fh:
            fh.write("\n".join([CSV_HEADER] + [row.csv() for row in rows]) + "\n")
    gp = args.gnuplot or cfg.get("gnuplot_out")
    if gp:
        _write_gnuplot(gp, rows)


def _write_gnuplot(path: str, rows: List[ResultRow]) -> None:
    """Two-column (param, cost) export, one blank-line-separated block per
    (method, N) curve, directly plottable with gnuplot's index syntax."""
    blocks: dict = {}
    for row in rows:
        blocks.setdefault((row.method, row.n_ports, row.cost_kind), []).append(row)
    chunks = []
    for (method, n, kind), rws in blocks.items():
        body = "\n".join(f"{_fmt(r.param)} {_fmt(r.cost)}" for r in rws)
        chunks.append(f"# {method} N={n} cost={kind}\n{body}")
    with open(path, "w") as fh:
        fh.write("\n\n".join(chunks) + "\n")


def cmd_channels(_args) -> int:
    for kind, entry in sorted(CHANNELS.items()):
        print(f"{kind:20s} parameter: {entry.keys[0]}")
    return 0


def cmd_processors(_args) -> int:
    for kind, entry in PROCESSORS.items():
        print(f"{kind:15s} {entry.cap}")
    return 0


# --- verify -------------------------------------------------------------------


def _verify_checks(level: str):
    """Yield (name, residual, tolerance) verification triples."""
    rng = np.random.default_rng(20240)

    h = rand.random_hermitian(64, rng)
    dec = herm_eig(h)
    yield ("herm_eig reconstruction (64)",
           float(np.abs(dec.reconstruct() - h).max()) / (1 + np.linalg.norm(h)), 1e-10)

    m = rand.random_hermitian(12, rng)
    yield ("partial trace preserves trace",
           abs(np.trace(partial_trace(m, [3, 4], [0])) - np.trace(m)), 1e-10)

    m = rand.random_hermitian(16, rng)
    s_inf, s_2, s_1 = (schatten_norm(m, p) for p in (np.inf, 2, 1))
    yield ("Schatten chain inf<=2<=1", max(0.0, s_inf - s_2, s_2 - s_1), 0.0)

    for kind in ("amplitude_damping", "depolarizing", "dephasing"):
        chi = ch.choi_of_channel(_build_channel({"kind": kind}, 0.35))
        marg = partial_trace(chi.matrix, [2, 2], [0])
        yield (f"choi marginal {kind}", float(np.abs(marg - np.eye(2) / 2).max()), 1e-9)

    a = rand.random_choi(2, rng).matrix
    b = rand.random_choi(2, rng).matrix
    c1 = cost_eval("C1", a, b)
    yield ("identical-input costs vanish", cost_eval("C1", a, a) + cost_eval("CF", a, a), 1e-9)
    yield ("Fuchs-van de Graaf C1 <= 2 sqrt(CF)",
           max(0.0, c1 - 2 * math.sqrt(cost_eval("CF", a, b))), 1e-9)
    cmu = cost_eval("Cmu", a, b, mu=1e-2)
    yield ("Huber sandwich", max(0.0, cmu - c1, c1 - cmu - 1e-2 * 4 / 2), 1e-9)

    tele = processors.teleportation_processor(2)
    x = rand.random_hermitian(4, rng)
    # independent Kraus reference K_w = (W_w^* (x) W_w)/2
    forward = sum(k @ x @ k.conj().T for k in
                  (np.kron(w.conj(), w) / 2 for w in ch.weyl_unitaries(2)))
    yield ("teleportation self-dual", float(np.abs(forward - tele.dual(x)).max()), 1e-10)
    pi = rand.random_density(4, rng).matrix
    xx = rand.random_hermitian(4, rng)
    lhs = np.trace(xx @ tele.apply_matrix(pi)).real
    rhs = np.trace(tele.dual(xx) @ pi).real
    yield ("adjoint identity", abs(lhs - rhs), 1e-10)

    proc = processors.pqc_processor(1, h0=processors.amplitude_damping_hamiltonian(0.5))
    prog = np.zeros((4, 4), dtype=complex)
    prog[0, 0] = 1.0
    chi_ad = ch.choi_of_channel(ch.amplitude_damping(0.5)).matrix
    yield ("pqc amplitude-damping point",
           cost_eval("C1", chi_ad, proc.apply_matrix(prog)), 1e-10)

    chi_e = rand.random_choi(2, rng).matrix
    pi = 0.5 * rand.random_density(4, rng).matrix + 0.5 * np.eye(4) / 4
    for kind, tol in (("C1", 1e-4), ("Cmu", 1e-6)):
        g = optim.simulation_gradient(tele, chi_e, pi, kind, 1e-2)
        direction = rand.random_traceless_direction(4, rng)
        eps = 1e-5
        fd = (optim.simulation_cost(tele, chi_e, pi + eps * direction, kind, 1e-2)
              - optim.simulation_cost(tele, chi_e, pi - eps * direction, kind, 1e-2)) / (2 * eps)
        an = float(np.real(np.trace(g @ direction)))
        yield (f"gradient fd ({kind})", abs(fd - an) / max(1e-12, abs(fd)), tol)

    proj = optim.project_to_states(np.diag([0.9, 0.6, -0.1]).astype(complex))
    yield ("simplex-spectrum projection",
           float(np.abs(np.diag(proj.matrix).real - [0.65, 0.35, 0.0]).max()), 1e-12)

    rows = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    prob = sdp.SdpProblem(objective=[np.eye(2)], constraints=[({0: rows}, [1.0, 1.0])])
    sol = sdp.solve_sdp(prob)
    yield ("small SDP objective", abs(sol.primal_objective - 2.0), 1e-6)

    chi_i = ch.choi_of_channel(ch.rotation(0.0)).matrix
    chi_d = ch.choi_of_channel(ch.depolarizing(0.3)).matrix
    yield ("diamond vs closed form (depolarizing)",
           abs(sdp.diamond_distance(chi_i - chi_d, 2) - 0.45), 1e-6)

    # a generator of its own, so the checks above and below keep their inputs
    blocks_rng = np.random.default_rng(20241)
    lost = 0.0
    for proc in (tele, processors.pqc_processor(2)):
        pi = rand.random_density(proc.d_prog, blocks_rng).matrix
        part = proc.block_coords.embed(proc.block_coords.part(pi))
        lost = max(lost, float(np.abs(proc.apply_matrix(pi) - proc.apply_matrix(part)).max()))
    yield ("program blocks lose no output (tele, pqc)", lost, 1e-12)

    if level == "full":
        for n in (2, 3):
            full = processors.pbt_processor(n, 2)
            red = processors.pbt_reduced_map(n, 2)
            chi = rand.random_choi(2, rng).matrix
            prog = reduce(np.kron, [chi] * n)
            yield (f"pbt reduced == full (N={n})",
                   float(np.abs(full.apply_matrix(prog) - red.apply_matrix(chi)).max()), 1e-8)

        phi = ch.max_entangled(2).matrix
        prev = math.inf
        for n in range(2, 7):
            red = processors.pbt_reduced_map(n, 2)
            err = sdp.diamond_distance(phi - red.apply_matrix(phi), 2)
            yield (f"pbt identity error bound (N={n})", max(0.0, err - 4.0 / n, err - prev), 1e-6)
            prev = err

        chi_a = ch.choi_of_channel(ch.amplitude_damping(0.5)).matrix
        pbt2 = processors.pbt_processor(2, 2)
        _, v1 = sdp.optimize_program_trace(pbt2, chi_a)
        _, vd = sdp.optimize_program_diamond(pbt2, chi_a)
        base = cost_eval("C1", chi_a, pbt2.apply_matrix(np.kron(chi_a, chi_a)))
        yield ("optimized C1 <= choi-program C1", max(0.0, v1 - base), 1e-8)
        yield ("sandwich C1 <= Cdiamond <= 2 C1",
               max(0.0, v1 - vd - 1e-6, vd - 2 * v1 - 1e-6), 0.0)

        res = optim.frank_wolfe(tele, ch.choi_of_channel(ch.rotation(0.3)).matrix,
                                optim.OptimConfig(max_iters=60, cost_kind="CF"))
        yield ("frank-wolfe runs (CF)", 0.0 if res.final_cost >= 0 else 1.0, 0.5)


def cmd_verify(args) -> int:
    level = args.level
    failures = 0
    t0 = time.perf_counter()
    for name, residual, tol in _verify_checks(level):
        ok = residual <= tol
        failures += 0 if ok else 1
        print(f"[{'pass' if ok else 'FAIL'}] {name:45s} residual={residual:.3e} tol={tol:.1e}")
    print(f"verify {level}: {'all passed' if not failures else f'{failures} failures'} "
          f"in {time.perf_counter() - t0:.1f}s")
    return 3 if failures else 0


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser: built on first use, then kept for the process."""
    parser = argparse.ArgumentParser(
        prog="qprogopt",
        description="Optimize program states of programmable quantum processors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("optimize", "benchmark"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None, help="CSV output path")
        p.add_argument("--gnuplot", default=None,
                       help="two-column (param, cost) export path")
        p.add_argument("--seed", type=int, default=None)
        # None: main reads sdp.DEFAULT_TOL per call, so a changed default holds
        p.add_argument("--tol", type=float, default=None,
                       help="SDP tolerance, finite and > 0 "
                            "(default: qprogopt.sdp.DEFAULT_TOL at call time)")
    p = sub.add_parser("verify")
    p.add_argument("level", nargs="?", default="fast", choices=["fast", "full"])
    sub.add_parser("channels")
    sub.add_parser("processors")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "optimize": cmd_run,
        "benchmark": cmd_run,
        "verify": cmd_verify,
        "channels": cmd_channels,
        "processors": cmd_processors,
    }
    try:
        if hasattr(args, "tol"):
            if args.tol is None:
                args.tol = sdp.DEFAULT_TOL
            if not (args.tol > 0 and math.isfinite(args.tol)):
                raise ConfigError(f"--tol must be finite and > 0, got {args.tol}")
        return handlers[args.command](args)
    except (ConfigError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _NUMERICAL as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
