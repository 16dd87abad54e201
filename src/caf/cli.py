"""Experiment harness: rate sweeps, DoF tables, alignment Monte Carlo runs.

Usage:

    caf fig2|dof|align|invert|dioph --config FILE [--seed N] [--out DIR]
        [--snr-db ...] [--k ...] [--l ...] [--p ...] [--trials ...]

Configs are plain ``key = value`` files; command-line flags win. Every
command is deterministic given (config, seed): CSV bytes are identical
across runs. Outputs land in ``<out>/<experiment>.csv``, optionally
``<out>/<experiment>.svg`` and ``<out>/run.json`` echoing the resolved
config.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import alignment, diophantine, fpcode, inversion, rates
from .errors import InvalidArgumentError, NonGenericChannelError
from .seeding import child_rng, derive_seed
from .svgplot import svg_line_chart

SCHEMA_VERSION = 1

EXPERIMENT_KEYS = {
    "fig2": {"seed", "h2_points", "snr_db", "workers"},
    "dof": {"seed", "snr_db", "k", "n_rational", "n_real", "rational_entry_max"},
    "align": {"seed", "p", "t_len", "trials", "noise_variance", "c5",
              "demod_strategy", "message_len", "code_distance",
              "inject_corruptions", "geometry", "l", "k", "scaling_mode",
              "code_file"},
    "invert": {"seed", "k", "l", "p", "samples"},
    "dioph": {"seed", "q_max", "p", "l", "k"},
}

# the only keys that take comma-separated lists
LIST_KEYS = {"snr_db", "p"}


@dataclass
class RunConfig:
    """Experiment name plus parameters, checked against the experiment schema."""

    experiment: str
    params: dict = field(default_factory=dict)

    def validate(self):
        allowed = EXPERIMENT_KEYS[self.experiment]
        unknown = sorted(set(self.params) - allowed)
        if unknown:
            raise InvalidArgumentError(
                f"unknown config keys for {self.experiment}: {', '.join(unknown)} "
                f"(allowed: {', '.join(sorted(allowed))})"
            )
        listed = sorted(k for k, v in self.params.items()
                        if isinstance(v, list) and k not in LIST_KEYS)
        if listed:
            raise InvalidArgumentError(
                f"config keys {', '.join(listed)} take one value, got a list "
                f"(only {', '.join(sorted(LIST_KEYS))} take lists)"
            )
        return self


def _coerce(token: str):
    token = token.strip()
    for cast in (int, float):
        try:
            return cast(token)
        except ValueError:
            pass
    return token


def _parse_value(text: str):
    """One scalar, or a list when ``text`` has commas (empty items dropped)."""
    if "," in text:
        return [_coerce(t) for t in text.split(",") if t.strip()]
    return _coerce(text)


def parse_config(path: str) -> dict:
    """Read a ``key = value`` file; comma-separated values become lists."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not (sep and key.strip() and value.strip()):
                raise InvalidArgumentError(f"bad config line: {line!r}")
            out[key.strip().replace("-", "_")] = _parse_value(value)
    return out


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def write_csv(path: str, header: list, rows: list) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(x) for x in row])
    text = buf.getvalue()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return text


def read_csv_text(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _write_run_json(outdir: str, experiment: str, config: dict, outputs: list):
    blob = {
        "schema_version": SCHEMA_VERSION,
        "experiment": experiment,
        "config": {k: config[k] for k in sorted(config)},
        "outputs": sorted(outputs),
    }
    with open(os.path.join(outdir, "run.json"), "w", encoding="utf-8") as fh:
        json.dump(blob, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _as_list(value):
    if isinstance(value, (list, tuple)):
        return list(value)
    return [value]


# ---------------------------------------------------------------- fig2


def _fig2_point(task):
    i, j, h2, db = task
    try:
        r = rates.normalized_rate_sweep([h2], [db])[0]
        return (i, j, r.coefficients[0], r.coefficients[1], r.normalized_rate)
    except Exception as exc:  # partial results flushed with a marker
        return (i, j, 0, 0, f"error:{type(exc).__name__}")


def cmd_fig2(config: dict, outdir: str) -> str:
    seed = int(config.get("seed", 0))
    points = int(config.get("h2_points", 1000))
    snrs = [float(s) for s in _as_list(config.get("snr_db", [20, 30, 40, 50]))]
    workers = int(config.get("workers", 0))
    grid = np.linspace(0.0, 1.0, points)
    tasks = [(i, j, float(h2), db) for i, h2 in enumerate(grid) for j, db in enumerate(snrs)]
    if workers > 1:
        # grid points are independent; map preserves task order, so the
        # CSV bytes match the serial run exactly
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_fig2_point, tasks, chunksize=64))
    else:
        results = [_fig2_point(t) for t in tasks]
    header = ["schema_version", "seed", "row_seed", "h2", "snr_db", "a1", "a2", "normalized_rate"]
    rows = []
    for (i, j, a1, a2, value), task in zip(results, tasks):
        rows.append([SCHEMA_VERSION, seed, derive_seed(seed, i, j),
                     task[2], task[3], a1, a2, value])
    text = write_csv(os.path.join(outdir, "fig2.csv"), header, rows)
    header_row, data = read_csv_text(text)
    series = []
    for db in snrs:
        xs = [float(r[3]) for r in data if float(r[4]) == db and not r[7].startswith("error")]
        ys = [float(r[7]) for r in data if float(r[4]) == db and not r[7].startswith("error")]
        series.append((f"{db:g} dB", (xs, ys)))
    with open(os.path.join(outdir, "fig2.svg"), "w", encoding="utf-8") as fh:
        fh.write(svg_line_chart(series, "normalized best-equation rate, h = (1, h2)",
                                "h2", "normalized rate"))
    return text


# ----------------------------------------------------------------- dof


def _dof_channels(config: dict, seed: int):
    k = int(config.get("k", 2))
    n_rational = int(config.get("n_rational", 5))
    n_real = int(config.get("n_real", 5))
    entry_max = int(config.get("rational_entry_max", 5))
    channels = []
    rng = child_rng(seed, 0)
    count = 0
    while count < n_rational:
        H = rng.integers(-entry_max, entry_max + 1, size=(k, k)).astype(float)
        if abs(np.linalg.det(H)) < 0.5 or np.any(np.all(H == 0.0, axis=1)):
            continue
        channels.append((f"rational{count}", "rational", H))
        count += 1
    rng = child_rng(seed, 1)
    for i in range(n_real):
        channels.append((f"real{i}", "real", rng.uniform(0.5, 2.0, size=(k, k))))
    return channels


def cmd_dof(config: dict, outdir: str) -> str:
    seed = int(config.get("seed", 0))
    db_grid = [float(x) for x in _as_list(config.get("snr_db", list(np.arange(40.0, 81.0, 5.0))))]
    channels = _dof_channels(config, seed)
    header = ["schema_version", "seed", "row_seed", "h_id", "h_kind", "curve",
              "record", "snr_db", "value", "h_entries"]
    rows = []
    for h_id, kind, H in channels:
        entries = ";".join(_fmt(float(x)) for x in H.ravel())
        curves = {"lattice": [], "time_sharing": [], "ia": [], "mimo": []}
        for db in db_grid:
            power = float(rates.db_to_linear(db))
            curves["lattice"].append(rates.lattice_sum_rate(H, power).rate_bits)
            curves["time_sharing"].append(rates.time_sharing_rate(H, power))
            curves["ia"].append(rates.ia_baseline(H.shape[0], power))
            curves["mimo"].append(rates.mimo_upper_bound(H, power))
        for curve, values in curves.items():
            for db, v in zip(db_grid, values):
                rows.append([SCHEMA_VERSION, seed, derive_seed(seed, len(rows)),
                             h_id, kind, curve, "rate", db, v, entries])
            slope = rates.dof_slope(values, db_grid)
            rows.append([SCHEMA_VERSION, seed, derive_seed(seed, len(rows)),
                         h_id, kind, curve, "slope", "", slope, entries])
    return write_csv(os.path.join(outdir, "dof.csv"), header, rows)


# ---------------------------------------------------------------- align


def _align_channel(config: dict, seed: int, geometry: str, l: int, p: int):
    """Draw the channel and return its B = 1 signature map over F_p.

    The map depends on p only through ``sig.p``, so ``cmd_align`` builds it
    once per run and copies it per prime.
    """
    rng = child_rng(seed, 99)
    if geometry == "example":
        h1, h2 = rng.uniform(0.5, 2.0, size=2)
        return alignment.example_signature(np.array([[1.0, h2], [h1, 1.0]]), p=p)
    k = int(config.get("k", 2))
    for _ in range(64):
        H = rng.uniform(0.5, 2.0, size=(k, k))
        try:
            return alignment.canonical_signature(H, l, p)
        except NonGenericChannelError:
            continue
    raise NonGenericChannelError("no generic channel found in 64 draws")


def cmd_align(config: dict, outdir: str) -> str:
    seed = int(config.get("seed", 0))
    p_list = [int(p) for p in _as_list(config.get("p", [5]))]
    t_len = int(config.get("t_len", 15))
    trials = int(config.get("trials", 1000))
    if trials < 1:
        raise InvalidArgumentError(f"trials must be >= 1, got {trials}")
    noise_var = float(config.get("noise_variance", 0.0))
    c5 = float(config.get("c5", 1.0))
    if not (math.isfinite(c5) and c5 > 0):
        # checked for every scaling mode: the CSV echoes c5 even where unused
        raise InvalidArgumentError(f"c5 must be finite and > 0, got {c5}")
    strategy = config.get("demod_strategy", "exhaustive")
    message_len = int(config.get("message_len", 4))
    distance = int(config.get("code_distance", 3))
    corrupt = int(config.get("inject_corruptions", 0))
    geometry = config.get("geometry", "example")
    l = int(config.get("l", 1))
    # B is a run policy: the constructors return B = 1 and each prime's
    # scaling is set below from the equation system derived for it
    if geometry == "example":
        # the worked example fixes K=2, L=1 and its own scaling
        if int(config.get("k", 2)) != 2:
            raise InvalidArgumentError(f"geometry=example is K=2 only, got k={config['k']}")
        fixed = sorted({"l", "scaling_mode"} & set(config))
        if fixed:
            raise InvalidArgumentError(
                f"geometry=example takes no {' or '.join(fixed)}; they set the canonical geometry"
            )
        scaling_mode = "tight" if noise_var > 0 else "unit"
    elif geometry == "canonical":
        scaling_mode = config.get("scaling_mode", "tight")
        if scaling_mode not in ("tight", "worstcase", "unit"):
            raise InvalidArgumentError(f"unknown scaling mode {scaling_mode!r}")
    else:
        raise InvalidArgumentError(f"unknown geometry {geometry!r}")
    code_file = config.get("code_file")
    if code_file:
        with open(code_file, "r", encoding="utf-8") as fh:
            stored = fpcode.GeneratorMatrix.from_text(fh.read())
        wrong = [p for p in p_list if p != stored.p]
        if wrong:
            raise InvalidArgumentError(f"stored code is over F_{stored.p}, run wants p={wrong[0]}")
        if fpcode.min_distance(stored) == 0:
            raise InvalidArgumentError(
                f"stored code {code_file} is not injective: a nonzero message "
                "encodes to the zero word"
            )
    for p in p_list:
        if not fpcode.is_prime(p):
            raise InvalidArgumentError(f"{p} is not prime")
    accepted = _align_channel(config, seed, geometry, l, p_list[0])
    H = accepted.h
    header = ["schema_version", "seed", "row_seed", "geometry", "k", "l", "p",
              "t_len", "trials", "noise_variance", "c5", "strategy",
              "log2_scaling", "power_mean", "demod_symbol_errors",
              "demod_symbols", "equation_block_errors", "message_mismatches",
              "blocks", "achievable_rate_eps0"]
    rows = []
    for pi, p in enumerate(p_list):
        # a copy per prime: each sets its own scaling
        sig = replace(accepted, p=p)
        eqsys = alignment.derive_equation_system(sig)
        if scaling_mode == "tight":
            sig.scaling = alignment.tight_scaling_factor(eqsys, c5)
        elif scaling_mode == "worstcase":
            sig.scaling = alignment._worstcase_scaling(sig.k, l, p)
        code = stored if code_file else fpcode.gv_search(
            p, t_len, distance, seed=derive_seed(seed, pi, 0), message_len=message_len)
        t_len = code.t
        with open(os.path.join(outdir, f"code_p{p}.txt"), "w", encoding="utf-8") as fh:
            fh.write(code.to_text())
        stats = _run_alignment_block(sig, eqsys, code, H, trials, noise_var, strategy,
                                     corrupt, derive_seed(seed, pi, 1))
        l_eff = sig.l if sig.l is not None else 1
        # per-stream rate times the actual stream count; equals
        # achievable_rate(K, L, p, 0) for canonical signatures
        rate0 = sig.submessage_count() * math.log2(p)
        rows.append([SCHEMA_VERSION, seed, derive_seed(seed, pi, 1),
                     geometry, sig.k,
                     l_eff, p, t_len, trials, noise_var, c5, strategy,
                     math.log2(sig.scaling),
                     stats["power_mean"], stats["demod_symbol_errors"],
                     stats["demod_symbols"], stats["equation_block_errors"],
                     stats["message_mismatches"], stats["blocks"], rate0])
    return write_csv(os.path.join(outdir, "align.csv"), header, rows)


def _run_alignment_block(sig, eqsys, code, H, trials, noise_var, strategy, corrupt, seed):
    """One Monte Carlo batch: encode, modulate, transmit, demodulate, decode, invert."""
    p = sig.p
    k = sig.k
    t_len = code.t
    rng = child_rng(seed, 0)
    # messages per (transmitter, submessage): vectors over F_p
    messages = [
        [rng.integers(0, p, size=(code.message_len, trials)) for _ in range(len(v))]
        for v in sig.values
    ]
    wbar = [[fpcode.encode(code, w) for w in tx] for tx in messages]  # (T, trials)
    flat = [np.stack([w.reshape(-1) for w in tx]) for tx in wbar]  # (n_k, T*trials)
    x = alignment.modulate(flat, sig)
    power_mean = float(np.mean(x * x))
    noise_rng = child_rng(seed, 1)
    y = alignment.awgn_channel(x, H, noise_rng, noise_variance=noise_var)
    truth = alignment.true_equations(flat, eqsys)
    demod_symbol_errors = 0
    demod_symbols = 0
    equation_block_errors = 0
    message_mismatches = 0
    decoded_equations = []
    corrupt_rng = child_rng(seed, 2)
    for m in range(k):
        if strategy == "oracle":
            # demodulation bypassed: the receiver gets the true equations
            hat = truth[m]
        else:
            hat = alignment.ml_demodulate(y[m], eqsys.receivers[m], p, sig.scaling,
                                          strategy=strategy)
        demod_symbol_errors += int(np.count_nonzero(np.any(hat != truth[m], axis=0)))
        demod_symbols += hat.shape[1]
        hat_mod = hat % p
        if corrupt > 0:
            # oracle-injection exercise: flip up to `corrupt` symbols per block
            for g in range(hat_mod.shape[0]):
                cols = hat_mod[g].reshape(t_len, trials)
                for tr in range(trials):
                    pos = corrupt_rng.integers(0, t_len, size=corrupt)
                    cols[pos, tr] = (cols[pos, tr] + 1 + corrupt_rng.integers(0, p - 1)) % p
        decoded_equations.append(hat_mod)
    # outer decode, one batched call per receiver over all its groups. The
    # code is linear and injective, so a true equation's message is the sum
    # of its contributors' messages mod p.
    true_msgs = alignment.true_equations([np.stack(tx) for tx in messages], eqsys)
    u_msgs = []
    for m in range(k):
        n_groups = decoded_equations[m].shape[0]
        words = decoded_equations[m].reshape(n_groups, t_len, trials).transpose(1, 0, 2)
        decoded = fpcode.md_decode(code, words.reshape(t_len, -1)).message
        decoded = decoded.reshape(code.message_len, n_groups, trials).transpose(1, 0, 2)
        bad = np.any(np.any(decoded != true_msgs[m] % p, axis=1), axis=0)
        equation_block_errors += int(np.count_nonzero(bad))
        u_msgs.append(decoded)
    # inversion: one solve per block, every trial a column of the right-hand
    # sides; peeling and elimination treat the columns independently
    try:
        solved = [(inversion.peel_invert(eqsys, u_msgs).values, slice(None))]
    except InvalidArgumentError:
        # wrong equations can make an overdetermined system inconsistent;
        # re-solve trial by trial so each such trial counts as one mismatch
        solved = []
        for tr in range(trials):
            try:
                result = inversion.peel_invert(eqsys, [u[:, :, tr] for u in u_msgs])
            except InvalidArgumentError:
                message_mismatches += 1
                continue
            solved.append((result.values, slice(tr, tr + 1)))
    for values, cols in solved:
        wrong = False  # per trial: some submessage was not recovered
        for kk, tx in enumerate(messages):
            for i, sent in enumerate(tx):
                got = values[(kk, i)].reshape(code.message_len, -1)
                wrong = wrong | np.any(got != sent[:, cols] % p, axis=0)
        message_mismatches += int(np.count_nonzero(wrong))
    return {
        "power_mean": power_mean,
        "demod_symbol_errors": demod_symbol_errors,
        "demod_symbols": demod_symbols,
        "equation_block_errors": equation_block_errors,
        "message_mismatches": message_mismatches,
        "blocks": trials * k,
    }


# --------------------------------------------------------------- invert


def cmd_invert(config: dict, outdir: str) -> str:
    seed = int(config.get("seed", 0))
    k = int(config.get("k", 2))
    l = int(config.get("l", 2))
    p_list = _as_list(config.get("p", 5))
    if len(p_list) != 1:
        raise InvalidArgumentError(f"invert takes one prime p, got p={p_list}")
    p = int(p_list[0])
    samples = int(config.get("samples", 100))
    if k < 1:
        raise InvalidArgumentError(f"k must be >= 1, got {k}")
    if l < 1:
        raise InvalidArgumentError(f"l must be >= 1, got {l}")
    if samples < 0:
        raise InvalidArgumentError(f"samples must be >= 0, got {samples}")
    if not fpcode.is_prime(p):
        raise InvalidArgumentError(f"{p} is not prime")
    # full column rank K |G_L| over F_p is the injectivity claim
    full_rank = k * alignment.monomial_card(k, l)
    rng = child_rng(seed, 0)
    injective = 0
    peel_eq = 0
    rejected = 0
    for s in range(samples):
        H = rng.uniform(0.5, 2.0, size=(k, k))
        try:
            sig = alignment.canonical_signature(H, l, p)
        except NonGenericChannelError:
            rejected += 1
            continue
        eqsys = alignment.derive_equation_system(sig)
        w = [child_rng(seed, s, kk).integers(0, p, size=(len(sig.values[kk]), 1))
             for kk in range(k)]
        u = [t % p for t in alignment.true_equations(w, eqsys)]
        sent = np.concatenate(w)  # (k, i) in col_keys order
        try:
            peel = inversion.peel_invert(eqsys, u)
        except inversion.PeelStallError:
            # a stalled peel proves nothing: the elimination decides the rank,
            # and there is no peel to compare with its solution
            solve = inversion.solve_linear(inversion.build_incidence(eqsys), u, eqsys)
            if solve.rank == full_rank:
                injective += 1
            continue
        # a completed peel certifies full column rank, so the elimination's
        # unique solution is the sent one iff A sent = u (mod p)
        injective += 1
        peeled = np.stack([peel.values[key] for key in map(tuple, eqsys.col_keys.tolist())])
        if np.array_equal(peeled, sent) and inversion._is_solution(eqsys, sent, u):
            peel_eq += 1
        # free this sample before the next one is built: it would otherwise
        # stay resident through the next signature construction
        del sig, eqsys, w, u, sent, peel, peeled
    header = ["schema_version", "seed", "row_seed", "k", "l", "p", "samples",
              "injective_pass", "peel_equals_solve", "rejected"]
    rows = [[SCHEMA_VERSION, seed, derive_seed(seed, 0), k, l, p, samples,
             injective, peel_eq, rejected]]
    return write_csv(os.path.join(outdir, "invert.csv"), header, rows)


# ---------------------------------------------------------------- dioph


def cmd_dioph(config: dict, outdir: str) -> str:
    seed = int(config.get("seed", 0))
    q_max = int(config.get("q_max", 10**4))
    p_list = [int(p) for p in _as_list(config.get("p", [2, 3, 5]))]
    l = int(config.get("l", 1))
    k = int(config.get("k", 2))
    header = ["schema_version", "seed", "row_seed", "record", "label", "x", "value", "flag"]
    rows = []
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    targets = [("golden", [golden]), ("rational_1_3", [1.0 / 3.0])]
    rng = child_rng(seed, 0)
    targets.append(("random_d2", list(rng.uniform(0.1, 0.9, size=2))))
    for label, h in targets:
        fit = diophantine.khinchin_decay_fit(h, q_max)
        stride = max(1, q_max // 200)
        for qi in range(0, q_max, stride):
            rows.append([SCHEMA_VERSION, seed, derive_seed(seed, len(rows)),
                         "envelope", label, int(fit.q[qi]), fit.envelope[qi],
                         "degenerate" if fit.degenerate else "ok"])
        rows.append([SCHEMA_VERSION, seed, derive_seed(seed, len(rows)),
                     "slope", label, q_max,
                     fit.slope if not fit.degenerate else 0.0,
                     "degenerate" if fit.degenerate else "ok"])
    H = child_rng(seed, 1).uniform(0.5, 2.0, size=(k, k))
    for row in diophantine.separation_scaling_probe(H, l, p_list):
        rows.append([SCHEMA_VERSION, seed, derive_seed(seed, len(rows)),
                     "separation_ratio", f"K{k}L{l}", row.p,
                     row.ratio_to_sqrt_p, "ok" if row.generic else "non-generic"])
    return write_csv(os.path.join(outdir, "dioph.csv"), header, rows)


# ----------------------------------------------------------------- main


COMMANDS = {
    "fig2": cmd_fig2,
    "dof": cmd_dof,
    "align": cmd_align,
    "invert": cmd_invert,
    "dioph": cmd_dioph,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="caf", description=__doc__.split("\n")[0])
    parser.add_argument("experiment", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--seed", type=int, help="global 64-bit seed")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--snr-db", type=float, nargs="+", dest="snr_db")
    parser.add_argument("--k", type=int)
    parser.add_argument("--l", type=int)
    parser.add_argument("--p", type=int, nargs="+")
    parser.add_argument("--trials", type=int)
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override any config key")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = parse_config(args.config) if args.config else {}
    for item in args.set:
        key, sep, value = item.partition("=")
        if not (sep and key.strip() and value.strip()):
            parser.error(f"--set expects KEY=VALUE, got {item!r}")
        config[key.strip().replace("-", "_")] = _parse_value(value)
    for key in ("seed", "snr_db", "k", "l", "p", "trials"):
        value = getattr(args, key)
        if value is not None:
            config[key] = value
    config.setdefault("seed", 0)
    RunConfig(args.experiment, config).validate()
    os.makedirs(args.out, exist_ok=True)
    COMMANDS[args.experiment](config, args.out)
    outputs = sorted(os.listdir(args.out))
    _write_run_json(args.out, args.experiment, config, outputs)
    print(f"wrote {args.experiment} outputs to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
