"""Command-line front end.

Subcommands
-----------
optimize    run one optimization from a JSON config; print result rows and
            optionally save the optimized program state
benchmark   sweep a channel-parameter and/or port-count grid, write a CSV
verify      run the built-in invariant suite (levels: fast, full)
channels    list the channel zoo
processors  list processor kinds and their size caps

Exit codes: 0 ok, 1 validation error (a missing or unknown key, a section or
value of the wrong JSON type, or a value that the library rejects, optimizer
settings included), 2 numerical failure, 3 verify failure.

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
from dataclasses import dataclass, replace
from functools import cache, partial
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import channels as ch
from . import optim, processors, rand, sdp
from .channels import cost_eval
from .hermlin import herm_eig, partial_trace, schatten_norm
from .processors import CapacityError, ProcessorMap

CSV_HEADER = "param,method,N,cost_kind,cost,iterations"

# the keys a config may hold, per section ("" is the top level), for optimize and
# benchmark alike; the processor and channel sections hold, besides "kind", the
# keys that their kind reads, a channel's scalar or matrix parameter first; any
# other key is a ConfigError
CONFIG_KEYS = {
    "": {"processor", "channel", "method", "methods", "cost", "mu", "seed", "optimizer",
         "out", "gnuplot_out", "save_program"},
    "processor": {
        "teleportation": ("d",),
        "pbt": ("N", "d"),
        "pbt_reduced": ("N", "d"),
        "pqc": ("N", "H0", "H1"),
        "mpqc": ("N", "H0", "H1"),
    },
    "channel": {
        "amplitude_damping": ("p", "values"),
        "depolarizing": ("p", "d", "values"),
        "dephasing": ("p", "values"),
        "pauli": ("probs",),
        "rotation": ("theta", "values"),
        "unitary": ("matrix",),
    },
    "optimizer": {"max_iters", "learning_rate", "tolerance", "init"},
    "optimizer.learning_rate": {"kind", "a", "b"},
}
PROCESSOR_KINDS = tuple(CONFIG_KEYS["processor"])
CHANNEL_KINDS = {kind: keys[0] for kind, keys in CONFIG_KEYS["channel"].items()}
# the channel costs but Cp (its order has no config key), and the diamond cost
COST_KINDS = tuple(kind for kind in ch.COST_KINDS if kind != "Cp") + ("Cdiamond",)


class ConfigError(ValueError):
    pass


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


def _known_keys(spec: dict, name: str) -> None:
    """A ConfigError naming the first key of section ``name`` not in CONFIG_KEYS, or
    not among the keys of its kind where they are per kind (for an unknown kind,
    those of every kind: the kind is its builder's error)."""
    known, kind, suffix = CONFIG_KEYS[name], spec.get("kind"), ""
    if isinstance(known, dict):  # keys per kind
        if isinstance(kind, str) and kind in known:
            known, suffix = {"kind", *known[kind]}, f" for {name} kind {kind!r}"
        else:
            known = {"kind"}.union(*known.values())
    for key in spec:
        if key not in known:
            full = f"{name}.{key}" if name else key
            raise ConfigError(f"unknown key {full!r}{suffix}")


def _section(cfg: dict, key: str, name: Optional[str] = None) -> dict:
    """The object under ``key`` (empty if absent), or a ConfigError naming it or
    its first unknown key."""
    name = name or key
    spec = cfg.get(key, {})
    if not isinstance(spec, dict):
        raise ConfigError(f"{name} must be an object, got {spec!r}")
    _known_keys(spec, name)
    return spec


def _method(name) -> str:
    if not isinstance(name, str) or name not in METHODS:
        raise ConfigError(f"unknown method {name!r}; expected one of {list(METHODS)}")
    return name


def _build_processor(spec: dict, n: int) -> ProcessorMap:
    kind = spec.get("kind")
    if kind not in PROCESSOR_KINDS:
        raise ConfigError(f"processor.kind {kind!r} not one of {PROCESSOR_KINDS}")
    d = _number(spec.get("d", 2), "processor.d")
    if kind == "teleportation":
        return _construct(processors.teleportation_processor, d)
    if kind == "pbt":
        return _construct(processors.pbt_processor, n, d)
    if kind == "pbt_reduced":
        return _construct(processors.pbt_reduced_map, n, d)
    h0 = _parse_complex_matrix(spec["H0"]) if "H0" in spec else None
    h1 = _parse_complex_matrix(spec["H1"]) if "H1" in spec else None
    make = processors.pqc_processor if kind == "pqc" else processors.mpqc_processor
    return _construct(make, n, h0, h1)


def _build_channel(spec: dict, value: Optional[float] = None) -> Tuple[ch.KrausChannel, float]:
    """The channel of a config's ``channel`` section and its scalar parameter
    ``p`` or ``theta`` (NaN for pauli and unitary channels); ``value`` (a grid
    point) replaces that parameter."""
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in CHANNEL_KINDS:
        raise ConfigError(f"channel.kind {kind!r} not one of {sorted(CHANNEL_KINDS)}")
    key = CHANNEL_KINDS[kind]
    if value is None:
        if key not in spec:
            raise ConfigError(f"channel.{key} is required for channel kind {kind!r}")
        value = spec[key]
    if kind == "pauli":
        return _construct(ch.pauli_channel, value), math.nan
    if kind == "unitary":
        return _construct(ch.unitary_channel, _parse_complex_matrix(value)), math.nan
    value = _number(value, f"channel.{key}", float)
    if kind == "depolarizing":
        return _construct(ch.depolarizing, value, _number(spec.get("d", 2), "channel.d")), value
    return _construct({"amplitude_damping": ch.amplitude_damping, "dephasing": ch.dephasing,
                       "rotation": ch.rotation}[kind], value), value


def _seed(args, cfg: dict) -> Optional[int]:
    """``--seed``, else the config's ``seed``: None or an integer >= 0, whatever the method."""
    seed = args.seed if args.seed is not None else cfg.get("seed")
    if seed is not None and (seed := _number(seed, "seed")) < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return seed


def _optim_config(cfg: dict, seed) -> optim.OptimConfig:
    """The ``optimizer`` section's settings, checked whatever the methods: the
    default cost and mu stand in until a first-order method sets the point's."""
    oc = _section(cfg, "optimizer")
    lr = _section(oc, "learning_rate", "optimizer.learning_rate")
    if oc.get("init") == "random" and seed is None:
        raise ConfigError("optimizer.init 'random' is stochastic: a seed is mandatory")
    config, rate = optim.OptimConfig, optim.LearningRate  # their defaults fill absent keys
    return _construct(
        config,
        max_iters=_number(oc.get("max_iters", config.max_iters), "optimizer.max_iters"),
        learning_rate=_construct(
            rate,
            kind=lr.get("kind", rate.kind),
            a=_number(lr.get("a", rate.a), "optimizer.learning_rate.a", float),
            b=_number(lr.get("b", rate.b), "optimizer.learning_rate.b", float),
        ),
        tolerance=_number(oc.get("tolerance", config.tolerance), "optimizer.tolerance", float),
        seed=0 if seed is None else seed,
        init=oc.get("init", config.init),
    )


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


def _first_order(runner: str, optimizer, proc, chi_e, cost_kind, mu, **_):
    ocfg = _construct(replace, optimizer, cost_kind=cost_kind, mu=mu)
    if runner == "frank_wolfe" and cost_kind == "C1":
        print(
            "warning: frank_wolfe with the non-smooth C1 cost may stall; "
            "consider cost 'Cmu'",
            file=sys.stderr,
        )
    res = getattr(optim, runner)(proc, chi_e, ocfg)
    return cost_kind, res.final_cost, len(res.cost_trace) - 1, res.program.matrix


def _sdp_program(name: str, kind: str, proc, chi_e, tol, **_):
    prog, val = getattr(sdp, name)(proc, chi_e, tol=tol)
    return kind, val, 0, prog.matrix


def _closed_form_unitary(proc, channel, chi_e, **_):
    if len(channel.kraus_ops) != 1:
        raise ConfigError("closed_form_unitary needs a unitary target channel")
    prog = optim.learn_unitary_program(proc, channel.kraus_ops[0])
    return "CF", cost_eval("CF", chi_e, proc.apply_matrix(prog.matrix)), 0, prog.matrix


def _choi_baseline(cfg, proc, n_ports, chi_e, cost_kind, mu, tol, **_):
    """``cost_kind`` at the channel's-Choi program: chi, or chi^(tensor N) for PBT."""
    kind = cfg["processor"]["kind"]
    if kind not in ("teleportation", "pbt_reduced", "pbt"):
        raise ConfigError(f"choi_baseline is not defined for processor kind {kind!r}")
    prog = chi_e
    for _ in range(n_ports - 1 if kind == "pbt" else 0):
        prog = np.kron(prog, chi_e)
    chi_pi = proc.apply_matrix(prog)
    if cost_kind == "Cdiamond":
        val = sdp.diamond_distance(chi_e - chi_pi, proc.d_in, tol=tol)
    else:
        val = cost_eval(cost_kind, chi_e, chi_pi, mu=mu)
    return cost_kind, val, 0, prog


# Each method takes a grid point's values by keyword and returns (cost kind, cost,
# iterations, program); it looks library functions up per call, so patches hold.
METHODS = {
    "subgradient": partial(_first_order, "projected_subgradient"),
    "frank_wolfe": partial(_first_order, "frank_wolfe"),
    "sdp_diamond": partial(_sdp_program, "optimize_program_diamond", "Cdiamond"),
    "sdp_trace": partial(_sdp_program, "optimize_program_trace", "C1"),
    "sdp_fidelity": partial(_sdp_program, "optimize_program_fidelity", "F"),
    "closed_form_unitary": _closed_form_unitary,
    "choi_baseline": _choi_baseline,
}


def _run_point(cfg: dict, method: str, proc: ProcessorMap, n_ports: int,
               channel_spec: dict, value: Optional[float], tol: float,
               optimizer: optim.OptimConfig) -> ResultRow:
    t0 = time.perf_counter()
    channel, param = _build_channel(channel_spec, value)
    if channel.d_in != proc.d_in:
        raise ConfigError(f"channel dimension {channel.d_in} != processor dimension {proc.d_in}")
    cost_kind = cfg.get("cost", "C1")
    if cost_kind not in COST_KINDS:
        raise ConfigError(f"cost {cost_kind!r} not one of {COST_KINDS}")
    mu = _number(cfg.get("mu", optim.OptimConfig.mu), "mu", float)
    if cost_kind == "Cmu" and not 0 < mu < math.inf:
        raise ConfigError(f"mu must be positive and finite for cost 'Cmu', got {mu}")
    kind, cost, iterations, program = METHODS[method](
        cfg=cfg, proc=proc, n_ports=n_ports, channel=channel,
        chi_e=ch.choi_of_channel(channel).matrix, cost_kind=cost_kind, mu=mu, tol=tol,
        optimizer=optimizer)
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
    _known_keys(cfg, "")
    # every section is checked here, before any solve runs, whatever the method
    for key in ("processor", "channel"):
        _section(cfg, key)
    _section(_section(cfg, "optimizer"), "learning_rate", "optimizer.learning_rate")
    for key in ("out", "gnuplot_out", "save_program"):
        if key in cfg and not (isinstance(cfg[key], str) and cfg[key]):
            raise ConfigError(f"{key} must be a non-empty file path, got {cfg[key]!r}")
    return cfg


def _channel_spec(cfg: dict) -> dict:
    spec = _section(cfg, "channel")
    if not spec:
        raise ConfigError("config needs a 'channel' section")
    return spec


def _grid(cfg: dict) -> tuple:
    spec = _channel_spec(cfg)
    values = spec.get("values")
    if values is not None and (not isinstance(values, list) or not values):
        raise ConfigError(f"channel.values must be a non-empty list, got {values!r}")
    n_list = _section(cfg, "processor").get("N", 1)
    if isinstance(n_list, list):
        if not n_list:
            raise ConfigError("processor.N grid is empty")
    else:
        n_list = [n_list]
    return values, [_number(n, "processor.N") for n in n_list]


def cmd_optimize(args) -> int:
    cfg = _load_config(args.config)
    optimizer = _optim_config(cfg, _seed(args, cfg))
    method = _method(cfg.get("method"))
    spec = _section(cfg, "processor")
    n_ports = _number(spec.get("N", 1), "processor.N")
    proc = _build_processor(spec, n_ports)
    row = _run_point(cfg, method, proc, n_ports, _channel_spec(cfg), None,
                     args.tol, optimizer)
    print(CSV_HEADER + ",wall_time_s")
    print(row.csv() + "," + _fmt(row.wall_time))
    _write_outputs(args, cfg, [row])
    save_path = cfg.get("save_program")
    if save_path:
        structure = "choi-power" if proc.program_domain == "choi" else "generic"
        _save_program(save_path, row.program, structure, cfg)
    return 0


def cmd_benchmark(args) -> int:
    cfg = _load_config(args.config)
    optimizer = _optim_config(cfg, _seed(args, cfg))
    methods = cfg.get("methods") or ([cfg["method"]] if "method" in cfg else None)
    if not methods:
        raise ConfigError("benchmark config needs 'methods' (or 'method')")
    if not isinstance(methods, list):
        raise ConfigError(f"methods must be a list of method names, got {methods!r}")
    methods = [_method(mth) for mth in methods]
    values, n_list = _grid(cfg)
    points = []
    for n in n_list:
        for v in values if values is not None else [None]:
            for mth in methods:
                points.append((n, v, mth))

    procs = {n: _build_processor(_section(cfg, "processor"), n) for n in n_list}

    ok_rows = []
    failures = 0
    for pt in points:
        n, v, mth = pt
        try:
            row = _run_point(cfg, mth, procs[n], n, _channel_spec(cfg), v, args.tol, optimizer)
        except (ConfigError, CapacityError):
            raise
        except Exception as exc:  # recorded per-row, run continues
            failures += 1
            print(f"point {pt}: failed: {exc}", file=sys.stderr)
            continue
        ok_rows.append(row)
        print(row.csv() + f",{_fmt(row.wall_time)}")
    _write_outputs(args, cfg, ok_rows)
    return 2 if failures else 0


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
    for kind, param in sorted(CHANNEL_KINDS.items()):
        print(f"{kind:20s} parameter: {param}")
    return 0


def cmd_processors(_args) -> int:
    caps = {
        "teleportation": f"2 <= d <= {processors.TELEPORTATION_MAX_D}",
        "pbt": f"program dim d^(2N) <= {processors.PBT_FULL_MAX_PROG_DIM}",
        "pbt_reduced": f"N <= {processors.PBT_REDUCED_MAX_PORTS}, "
                       f"d <= {processors.TELEPORTATION_MAX_D}",
        "pqc": f"N <= {processors.PQC_MAX_GATES}",
        "mpqc": f"N <= {processors.MPQC_MAX_GATES}",
    }
    for kind in PROCESSOR_KINDS:
        print(f"{kind:15s} {caps[kind]}")
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
        channel, _ = _build_channel({"kind": kind, "p": 0.35})
        chi = ch.choi_of_channel(channel)
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
            prog = chi.copy()
            for _ in range(n - 1):
                prog = np.kron(prog, chi)
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
        "optimize": cmd_optimize,
        "benchmark": cmd_benchmark,
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
    except (np.linalg.LinAlgError, RuntimeError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
