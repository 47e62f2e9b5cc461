"""Independent reference implementations used to cross-check the package.

The fitters' oracles work on raw index arrays so they share no code with
the package: the win/loss fitter is checked against a derivative-free grid
search, the margin fitter against an explicit KKT solve, and gradients
against central finite differences. The season parser is checked against
``reference_parse_season``, the plain row loop it replaced.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import itertools
import re

import numpy as np
import scipy.optimize

from seasoninfo.errors import ParseError
from seasoninfo.ingest import CSV_HEADER, MAX_SCORE, Season


def bt_objective(params, h_idx, a_idx, w, n_teams, penalty):
    """Penalized Bradley-Terry log-likelihood in sum-to-zero coordinates.

    ``params`` holds the first ``n_teams - 1`` strengths followed by the
    home advantage; the last strength is the negated sum of the others.
    Accepts a single vector or a batch of shape (B, n_teams).
    """
    p = np.atleast_2d(np.asarray(params, dtype=float))
    beta_free = p[:, : n_teams - 1]
    beta_last = -beta_free.sum(axis=1, keepdims=True)
    beta = np.hstack([beta_free, beta_last])
    alpha = p[:, -1]
    eta = beta[:, h_idx] - beta[:, a_idx] + alpha[:, None]
    # log sigmoid(eta) = -log(1 + exp(-eta)), computed stably
    log_p = -np.logaddexp(0.0, -eta)
    log_q = -np.logaddexp(0.0, eta)
    loglik = (w * log_p + (1.0 - w) * log_q).sum(axis=1)
    ridge = 0.5 * penalty * ((beta**2).sum(axis=1) + alpha**2)
    out = loglik - ridge
    return out[0] if np.ndim(params) == 1 else out


def bt_grid_oracle(h_idx, a_idx, w, n_teams, penalty, box=3.0, coarse=0.5):
    """Brute-force maximizer of the penalized BT likelihood.

    A coarse grid scan over the sum-to-zero box locates the basin of the
    (unique, the objective is strictly concave) maximum, then Powell's
    derivative-free direction-set search refines it. Shares no code with
    the package's Newton fitter. Returns the full parameter vector
    (n_teams strengths, then home advantage).
    """
    h_idx = np.asarray(h_idx, dtype=np.intp)
    a_idx = np.asarray(a_idx, dtype=np.intp)
    w = np.asarray(w, dtype=float)
    dims = n_teams  # (n_teams - 1) free strengths plus the home advantage

    def f(x):
        return bt_objective(x, h_idx, a_idx, w, n_teams, penalty)

    axis = np.arange(-box, box + coarse / 2, coarse)
    best_val = -np.inf
    best = np.zeros(dims)
    for chunk in _batched(itertools.product(*([axis] * dims)), 20000):
        pts = np.array(chunk)
        vals = f(pts)
        j = int(np.argmax(vals))
        if vals[j] > best_val:
            best_val = vals[j]
            best = pts[j].copy()

    res = scipy.optimize.minimize(
        lambda x: -f(x), best, method="Powell",
        options={"xtol": 1e-12, "ftol": 1e-14, "maxiter": 10000},
    )
    x = res.x
    beta = np.append(x[: n_teams - 1], -x[: n_teams - 1].sum())
    return np.append(beta, x[-1])


def _batched(iterable, size):
    it = iter(iterable)
    while True:
        chunk = list(itertools.islice(it, size))
        if not chunk:
            return
        yield chunk


def mov_kkt_oracle(h_idx, a_idx, margins, n_teams, penalty):
    """Constrained ridge least squares for the margin model via KKT.

    Full parameterization (all strengths plus home advantage) with an
    explicit Lagrange multiplier enforcing the sum-to-zero constraint.
    Returns (strengths, home_adv).
    """
    m = len(margins)
    X = np.zeros((m, n_teams + 1))
    X[np.arange(m), h_idx] += 1.0
    X[np.arange(m), a_idx] -= 1.0
    X[:, -1] = 1.0
    y = np.asarray(margins, dtype=float)

    P = np.diag([penalty] * n_teams + [0.0])
    c = np.array([1.0] * n_teams + [0.0])
    kkt = np.zeros((n_teams + 2, n_teams + 2))
    kkt[: n_teams + 1, : n_teams + 1] = 2.0 * (X.T @ X + P)
    kkt[: n_teams + 1, -1] = c
    kkt[-1, : n_teams + 1] = c
    rhs = np.zeros(n_teams + 2)
    rhs[: n_teams + 1] = 2.0 * (X.T @ y)
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
    return sol[:n_teams], sol[n_teams]


def central_diff_gradient(f, x, step=1e-5):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(len(x)):
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        g[i] = (f(hi) - f(lo)) / (2.0 * step)
    return g


def enum_info_metric(pairs):
    """Plain counting re-statement of the prediction-credit metric."""
    total = 0.0
    count = 0
    for predicted_home_win, outcome in pairs:
        count += 1
        if outcome == 0:
            total += 0.5
        elif (outcome > 0) == bool(predicted_home_win):
            total += 1.0
    return total / count


def enum_home_baseline(outcomes):
    total = 0.0
    for outcome in outcomes:
        if outcome == 0:
            total += 0.5
        elif outcome > 0:
            total += 1.0
    return total / len(outcomes)


def alpha_only_mle(n_games, penalty, lo=0.0, hi=50.0, tol=1e-13):
    """Penalized MLE for the home advantage when every game is a home win
    and all strengths are pinned at zero; solved by bisection on the
    gradient n*(1 - sigmoid(a)) - penalty*a.
    """

    def grad(a):
        return n_games / (1.0 + np.exp(a)) - penalty * a

    a, b = lo, hi
    ga = grad(a)
    while b - a > tol:
        mid = 0.5 * (a + b)
        gm = grad(mid)
        if (ga > 0) == (gm > 0):
            a, ga = mid, gm
        else:
            b = mid
    return 0.5 * (a + b)


def reference_parse_season(raw: bytes, league, season_label: str) -> Season:
    """``parse_season`` as a plain loop: one generator per row, each date
    parsed where it appears, each score converted twice, and ``teams`` left
    for ``Season`` to derive from the rows. It raises the same ParseError
    message and line for every input the csv module can read."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not valid UTF-8: {exc}") from None

    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty season: file has no rows") from None
    if tuple(header) != CSV_HEADER:
        raise ParseError(
            f"expected header {','.join(CSV_HEADER)!r}, got {','.join(header)!r}", line=1
        )

    rows = []
    for row in reader:
        line_no = reader.line_num
        if not row:
            continue  # ignore a trailing blank line
        if len(row) != 5:
            raise ParseError(f"expected 5 columns, got {len(row)}", line=line_no)
        date_s, home, away, hs_s, as_s = (field.strip() for field in row)
        try:
            if not re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", date_s):
                raise ValueError
            date = dt.date.fromisoformat(date_s)
        except ValueError:
            raise ParseError(f"bad date {date_s!r}", line=line_no) from None
        if not home or not away:
            raise ParseError("empty team id", line=line_no)
        if home == away:
            raise ParseError(f"home and away are both {home!r}", line=line_no)
        scores = []
        for s in (hs_s, as_s):
            if not (s.isascii() and s.isdigit()):
                raise ParseError(f"score {s!r} is not a non-negative integer", line=line_no)
            if len(s.lstrip("0")) > 19 or int(s) > MAX_SCORE:  # int() refuses 4,300+ digits
                raise ParseError(f"score {s[:30]} is above {MAX_SCORE}", line=line_no)
            scores.append(int(s))
        rows.append((date, home, away, scores[0], scores[1]))

    if not rows:
        raise ParseError("empty season: file has a header but no games")
    return Season(league, season_label, tuple(rows))
