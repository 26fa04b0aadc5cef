"""Output checks, run after timing against closed forms and theorems.

Each check takes the output directory of one qsd call and returns a
list of problems; an empty list means the call's output is correct.
Nothing here compares against a stored copy of earlier output.

Closed forms used (OU: dX = dB - X dt killed at 0; linear: the
subcritical Feller diffusion h(z) = -z, gamma = 1, in x = 2 sqrt(z)):

* OU levels 2k - 1, linear levels k;
* OU quasi-stationary cdf 1 - exp(-x^2), linear 1 - exp(-x^2 / 2);
* OU killed transition density by the image method,
  p_t(x, y) = phi(y; m, v) - phi(y; -m, v), m = x e^-t, v = (1 - e^-2t)/2,
  with survival erf(x e^-t / sqrt(1 - e^-2t));
* linear survival 1 - exp(-x^2 / (2 (e^t - 1))), from the branching
  property of the Feller diffusion;
* the OU process conditioned to survive: stationary cdf
  erf(x) - (2x / sqrt(pi)) exp(-x^2), transition density
  e^t (y / x) p_t(x, y).
"""

import csv
import json
import math
import os

import numpy as np
from scipy.special import erf, ndtr

import workloads

# Dvoretzky-Kiefer-Wolfowitz: P(sup |F_n - F| > eps) <= 2 exp(-2 n eps^2)
DKW_ALPHA = 1e-6


def dkw_eps(n, alpha=DKW_ALPHA):
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def read_csv(out_dir, name):
    """Header and float columns of one artifact."""
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    cols = {h: np.array([float(r[i]) for r in body])
            for i, h in enumerate(header)}
    return header, cols


def read_report(out_dir):
    with open(os.path.join(out_dir, "run_report.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# closed forms

def ou_killed_density(x, y, t):
    m = x * math.exp(-t)
    v = 0.5 * (1.0 - math.exp(-2.0 * t))
    c = 1.0 / math.sqrt(2.0 * math.pi * v)
    return c * (np.exp(-(y - m) ** 2 / (2 * v)) - np.exp(-(y + m) ** 2 / (2 * v)))


def ou_survival(x, t):
    return float(erf(x * math.exp(-t) / math.sqrt(1.0 - math.exp(-2.0 * t))))


def ou_survivor_cdf(x, t, y):
    """Law at time t of the OU paths from x that have not hit 0."""
    m = x * math.exp(-t)
    s = math.sqrt(0.5 * (1.0 - math.exp(-2.0 * t)))
    y = np.asarray(y, dtype=float)
    mass = (ndtr((y - m) / s) - ndtr(-m / s)) - (ndtr((y + m) / s)
                                                 - ndtr(m / s))
    return np.clip(mass / ou_survival(x, t), 0.0, 1.0)


def ou_qprocess_cdf(x, t, y):
    """Law at time t of the OU process from x conditioned to survive."""
    fine = np.linspace(0.0, 12.0, 24001)
    dens = math.exp(t) * fine / x * ou_killed_density(x, fine, t)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1])
                                           * np.diff(fine))])
    return np.interp(y, fine, cum)


def ou_qsd_cdf(y):
    return 1.0 - np.exp(-np.asarray(y, dtype=float) ** 2)


def ou_qprocess_stationary_cdf(y):
    y = np.asarray(y, dtype=float)
    return erf(y) - 2.0 * y / math.sqrt(math.pi) * np.exp(-y * y)


def linear_qsd_cdf(y):
    return 1.0 - np.exp(-np.asarray(y, dtype=float) ** 2 / 2.0)


def linear_survival(x, t):
    return 1.0 - math.exp(-x * x / (2.0 * (math.exp(t) - 1.0)))


def ols_rate(times, surv):
    """Decay rate the survival-slope estimator returns on exact data."""
    slope = np.polyfit(times, np.log(surv), 1)[0]
    return float(-slope)


# ---------------------------------------------------------------------------
# analysis

LEVELS = {"ou": lambda k: 2.0 * k - 1.0, "linear": lambda k: float(k)}
LEVEL_TOL = 1e-3          # relative, on the four leading levels
QSD_CDF = {"ou": ou_qsd_cdf, "linear": linear_qsd_cdf}
QSD_CDF_TOL = 2e-3        # sup distance on the grid
ORTHO_TOL = 1e-8          # Gram matrix of the eigenfunctions in mu
KERNEL_TOL = 5e-4         # OU kernel slice, absolute in density
SURVIVAL_TOL = 5e-4

# verdicts the theory gives for each analysis model.  h5 (return from
# infinity) needs a drift that outgrows x: the logistic and Allee
# drifts grow like x^3, OU and the subcritical Feller drift x/2 + 1/(2x)
# only linearly, so there the return-time integral diverges like log.
# The flat model 0*z is the critical Feller diffusion: q = 1/(2x), so
# q^2 - q' -> 0 (h2 fails), the speed tail diverges (h4 fails), and
# growth never declines (hh fails).  OU has no growth form: hh is
# inconclusive by construction.
VERDICTS = {
    "logistic": dict(h1="holds", h2="holds", h3="holds", h4="holds",
                     h5="holds", hh="holds"),
    "allee": dict(h1="holds", h2="holds", h3="holds", h4="holds",
                  h5="holds", hh="holds"),
    "linear": dict(h1="holds", h2="holds", h3="holds", h4="holds",
                   h5="fails", hh="holds"),
    "ou": dict(h1="holds", h2="holds", h3="holds", h4="holds",
               h5="fails", hh="inconclusive"),
    "flat": dict(h1="holds", h2="fails", h3="holds", h4="fails",
                 h5="fails", hh="fails"),
}


def check_verdicts(model, out_dir):
    with open(os.path.join(out_dir, "hypotheses.csv"),
              encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    got = {r["hypothesis"]: r["status"] for r in rows}
    problems = [f"{name}: {got.get(name)} (expected {want})"
                for name, want in VERDICTS[model].items()
                if got.get(name) != want]
    h5 = [r for r in rows if r["hypothesis"] == "h5"]
    if not h5 or "agreement=yes" not in h5[0]["value_or_growth"]:
        problems.append("h5: the two return-time forms disagree")
    return problems


def _check_qsd(model, out_dir):
    problems = []
    _, y = read_csv(out_dir, "yaglom.csv")
    cdf, dens = y["cdf"], y["density"]
    if np.any(np.diff(cdf) < 0) or abs(cdf[-1] - 1.0) > 1e-12:
        problems.append("yaglom cdf is not a distribution function")
    if np.any(dens < 0):
        problems.append("yaglom density has negative values")
    if model in QSD_CDF:
        gap = float(np.max(np.abs(cdf - QSD_CDF[model](y["x"]))))
        if gap > QSD_CDF_TOL:
            problems.append(f"yaglom cdf off the closed form by {gap:.3g}")
    return problems


def check_spectrum(model, out_dir):
    problems = []
    _, s = read_csv(out_dir, "spectrum.csv")
    lam = s["lambda_k"]
    if np.any(lam <= 0) or np.any(np.diff(lam) <= 0):
        problems.append("levels are not positive and increasing")
    if model in LEVELS:
        for k in range(1, 5):
            want = LEVELS[model](k)
            if abs(lam[k - 1] - want) > LEVEL_TOL * want:
                problems.append(f"level {k}: {float(lam[k - 1])!r}, "
                                f"expected {want}")
    header, e = read_csv(out_dir, "eigenfunctions.csv")
    K = sum(1 for h in header if h.startswith("eta_"))
    etas = np.column_stack([e[f"eta_{k + 1}"] for k in range(K)])
    gram = (etas.T * e["mu_weight"]) @ etas
    defect = float(np.max(np.abs(gram - np.eye(K))))
    if defect > ORTHO_TOL:
        problems.append(f"eigenfunctions not orthonormal in mu "
                        f"(defect {defect:.3g})")
    return problems + _check_qsd(model, out_dir)


def check_yaglom(model, out_dir):
    problems = _check_qsd(model, out_dir)
    sc = read_report(out_dir)["scalars"]
    qs = [sc["quantile_10"], sc["quantile_50"], sc["quantile_90"]]
    if not qs[0] < qs[1] < qs[2]:
        problems.append("profile quantiles are not increasing")
    return problems


def check_kernel(model, out_dir):
    problems = []
    sc = read_report(out_dir)["scalars"]
    t, x, surv = sc["t"], sc["x"], sc["survival_from_x"]
    if not t >= sc["t_min_K"]:
        problems.append("slice below the decomposition's t_min")
    if not 0.0 < surv < 1.0:
        problems.append(f"survival_from_x={surv!r} is not a probability")
    _, k = read_csv(out_dir, "kernel_slice.csv")
    y = k["y"]
    xn = float(y[np.argmin(np.abs(y - x))])      # the kernel's source node
    if model == "ou":
        gap = float(np.max(np.abs(k["transition_density"]
                                  - ou_killed_density(xn, y, t))))
        if gap > KERNEL_TOL:
            problems.append(f"OU kernel off the image-method density "
                            f"by {gap:.3g}")
        want = ou_survival(xn, t)
        if abs(surv - want) > SURVIVAL_TOL:
            problems.append(f"OU survival {surv!r}, expected {want!r}")
    elif model == "linear":
        want = linear_survival(xn, t)
        if abs(surv - want) > SURVIVAL_TOL:
            problems.append(f"Feller survival {surv!r}, expected {want!r}")
    return problems


# ---------------------------------------------------------------------------
# paths

RATE_SIGMAS = 4.0


def _survivor_ecdf(out_dir):
    _, h = read_csv(out_dir, "conditional_hist.csv")
    edges = np.concatenate([h["bin_lo"][:1], h["bin_hi"]])
    ecdf = np.concatenate([[0.0], np.cumsum(h["mass"])])
    return edges, ecdf


def check_simulate_ou(out_dir, t_max, window, x0=1.0):
    problems = []
    sc = read_report(out_dir)["scalars"]
    n, n_surv = sc["n_paths"], sc["survivors_at_t_max"]

    # the absorption-time law: empirical survival within DKW of erf(...)
    _, s = read_csv(out_dir, "survival.csv")
    ts = s["t"][1:]
    exact = np.array([ou_survival(x0, t) for t in ts])
    gap = float(np.max(np.abs(s["fraction"][1:] - exact)))
    if gap > dkw_eps(n):
        problems.append(f"survival curve off erf(...) by {gap:.3g} "
                        f"> DKW {dkw_eps(n):.3g}")

    # rate estimate: within RATE_SIGMAS standard errors of 1, allowing
    # for the window's own two-mode bias computed from the closed form
    sel = (s["t"] >= window[0]) & (s["t"] <= window[1])
    bias = abs(ols_rate(s["t"][sel], [ou_survival(x0, t)
                                      for t in s["t"][sel]]) - 1.0)
    rate, se = sc.get("lambda1_hat"), sc.get("lambda1_stderr")
    if rate is None:
        problems.append("no decay-rate estimate")
    elif abs(rate - 1.0) > RATE_SIGMAS * se + bias:
        problems.append(f"rate {rate:.5g} +- {se:.3g} is not 1 "
                        f"(window bias {bias:.3g})")

    # survivor law at t_max: 1 - exp(-x^2) in the limit; exact at t_max
    edges, ecdf = _survivor_ecdf(out_dir)
    limit_gap = float(np.max(np.abs(ou_survivor_cdf(x0, t_max, edges)
                                    - ou_qsd_cdf(edges))))
    gap = float(np.max(np.abs(ecdf - ou_qsd_cdf(edges))))
    if gap > dkw_eps(n_surv) + limit_gap:
        problems.append(f"survivor law off 1-exp(-x^2) by {gap:.3g}")
    return problems


def check_compare_logistic(out_dir):
    sc = read_report(out_dir)["scalars"]
    problems = []
    if not sc["ks_distance"] < 0.05:
        problems.append(f"C07: KS {sc['ks_distance']:.3g} >= 0.05")
    gap = sc.get("lambda1_rel_gap")
    if gap is None or not gap < 0.05:
        problems.append(f"C07: rate gap {gap} not under 5%")
    return problems


def check_qprocess_ou(out_dir, t_max, x0=1.0):
    problems = []
    sc = read_report(out_dir)["scalars"]
    _, p = read_csv(out_dir, "paths_summary.csv")
    if not np.all(np.isinf(p["T0"])):
        problems.append("a conditioned path was absorbed")
    edges, ecdf = _survivor_ecdf(out_dir)
    limit = ou_qprocess_stationary_cdf(edges)
    limit_gap = float(np.max(np.abs(ou_qprocess_cdf(x0, t_max, edges)
                                    - limit)))
    gap = float(np.max(np.abs(ecdf - limit)))
    eps = dkw_eps(sc["n_paths"])
    if gap > eps + limit_gap:
        problems.append(f"endpoint law off erf(x)-(2x/sqrt(pi))exp(-x^2) "
                        f"by {gap:.3g} > {eps + limit_gap:.3g}")
    return problems


# ---------------------------------------------------------------------------
# lattice

def check_bd(out_dir, n_list):
    problems = []
    _, k = read_csv(out_dir, "scaling_ks.csv")
    ks = k["ks_distance"]
    if list(k["N"].astype(int)) != list(n_list):
        problems.append("scaling rows do not cover the lattice sizes")
    if not np.all(np.diff(ks) < 0):
        problems.append(f"C11: KS does not fall as N grows: {ks.tolist()}")
    if not ks[-1] < 0.1:
        problems.append(f"C11: KS {ks[-1]:.3g} at N={n_list[-1]} >= 0.1")

    sc = read_report(out_dir)["scalars"]
    for key in ("i", "ii", "iii", "iv"):
        if sc.get(f"statement_{key}") != "holds":
            problems.append(f"series statement {key}: "
                            f"{sc.get(f'statement_{key}')}")
    if sc.get("iii_iv_agree") is not True:
        problems.append("series statements iii and iv disagree")

    _, b = read_csv(out_dir, "bd_paths.csv")
    N = n_list[-1]
    if np.any(np.abs(b["state"] - b["count"] / N) > 1e-12):
        problems.append("bd_paths: state is not count / N")
    for rep in np.unique(b["replica"]):
        sel = b["replica"] == rep
        t, c = b["t"][sel], b["count"][sel]
        if t[0] != 0.0 or np.any(np.diff(t) <= 0):
            problems.append(f"bd_paths replica {int(rep)}: times do not "
                            f"increase from 0")
        if np.any(np.abs(np.diff(c)) != 1):
            problems.append(f"bd_paths replica {int(rep)}: a jump is "
                            f"not +-1")
        if np.any(c[:-1] == 0):
            problems.append(f"bd_paths replica {int(rep)}: left state 0")
    return problems


# ---------------------------------------------------------------------------
# dispatch and reruns

def check_call(call, out_dir):
    """Problems with one call's output; the call name picks the check."""
    w = workloads
    kind, _, rest = call.name.partition("_")
    model = rest.split("_")[0]
    if kind == "check":
        return check_verdicts(model, out_dir)
    if kind == "spectrum":
        return check_spectrum(model, out_dir)
    if kind == "yaglom":
        return check_yaglom(model, out_dir)
    if kind == "kernel":
        return check_kernel(model, out_dir)
    if call.name == "simulate_ou":
        return check_simulate_ou(out_dir, w.OU_T_MAX, w.OU_WINDOW)
    if call.name == "compare_logistic":
        return check_compare_logistic(out_dir)
    if call.name == "qprocess_ou":
        return check_qprocess_ou(out_dir, w.OU_T_MAX)
    if call.name == "bd_logistic":
        return check_bd(out_dir, w.BD_N_LIST)
    raise ValueError(f"no check for call {call.name!r}")


def same_digests(dir_a, dir_b):
    """Whether two runs of one call report the same file digests."""
    return read_report(dir_a)["files"] == read_report(dir_b)["files"]
