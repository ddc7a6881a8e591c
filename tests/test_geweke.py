"""Geweke's joint-distribution test: the chain targets the BPMF posterior.

Every other sampler test is relative (engines agree with each other, worlds
agree with the golden trajectory).  This one is absolute (Geweke, "Getting
it right", JASA 2004).  On a tiny model, two simulators of the joint
distribution of hyperparameters, factors and ratings must agree:

* *marginal-conditional* draws everything forward from the model: the
  Normal-Wishart hyperpriors, the factor rows, then the ratings on a fixed
  sparsity pattern;
* *successive-conditional* starts from one forward draw and alternates one
  real Gibbs sweep (hyperparameters and factors given the ratings) with a
  redraw of the ratings given the factors.

If the sweep leaves the posterior invariant, both produce the joint, so
every test function has one mean under both.  Each mean difference becomes
a z-score whose successive-conditional standard error is corrected by the
trace's :func:`~repro.core.diagnostics.effective_sample_size`.  Seeds and
sample counts are fixed, so the verdict is deterministic; the bound
``Z_MAX`` leaves a stated margin over the ~20 test functions.

The policy thresholds put the model's degrees in every kernel regime:
degree 0 and the low-degree (rank-one) regime, the single-pass Gram path
and the blocked parallel path.  Tier-1 runs the batched engine; the
``stat`` marker runs the reference engine and a 2-rank simulated world.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.core.diagnostics import effective_sample_size
from repro.core.gibbs import GibbsSampler, RankLayout, SamplerOptions
from repro.core.priors import BPMFConfig, GaussianPrior, NormalWishartPrior
from repro.core.state import BPMFState
from repro.core.updates import HybridUpdatePolicy, UpdateMethod
from repro.core.wishart import sample_normal_wishart
from repro.distributed.comm_plan import build_comm_plan
from repro.distributed.partition import partition_ratings
from repro.distributed.sampler import DistributedGibbsSampler, DistributedOptions
from repro.mpi.simmpi import SimCommWorld
from repro.sparse.csr import RatingMatrix

K = 2
ALPHA = 2.0
N_USERS, N_MOVIES = 6, 5
#: Rated movies per user: user degrees 0..5, movie degrees 2..4.
RATED = [[], [0], [1, 2], [0, 3, 4], [1, 2, 3], [0, 1, 2, 3, 4]]
USERS = np.array([u for u, movies in enumerate(RATED) for _ in movies])
MOVIES = np.array([m for movies in RATED for m in movies])

#: Degrees 0-2 take the rank-one kernel, 3-4 the Gram path, 5 the blocked
#: parallel path (users; movies have degrees 2-4).
POLICY = HybridUpdatePolicy(rank_one_threshold=3, parallel_threshold=5,
                            block_grain=2)

#: nu0 = K + 6 keeps the fourth moments of the factors finite (the
#: variance of a squared factor needs E[Lambda^-2]), so every z-score's
#: standard error exists.
HYPERPRIOR = NormalWishartPrior(mu0=np.zeros(K), beta0=2.0,
                                W0=np.eye(K) / (K + 20), nu0=K + 20)
CONFIG = BPMFConfig(num_latent=K, alpha=ALPHA, burn_in=0, n_samples=1,
                    user_hyperprior=HYPERPRIOR, movie_hyperprior=HYPERPRIOR)

#: The largest |z| allowed.  Under a correct sampler each z is ~N(0, 1);
#: over the 21 test functions P(max |z| > 4.5) is about 1e-4.
Z_MAX = 4.5


def _factors(prior: GaussianPrior, n: int, rng) -> np.ndarray:
    chol = np.linalg.cholesky(prior.precision)
    return prior.mean + np.linalg.solve(chol.T, rng.standard_normal((K, n))).T


def _ratings(state: BPMFState, rng) -> np.ndarray:
    mean = np.einsum("ij,ij->i", state.user_factors[USERS],
                     state.movie_factors[MOVIES])
    return mean + rng.standard_normal(USERS.shape[0]) / np.sqrt(ALPHA)


def forward_draw(rng) -> tuple:
    """One draw of ``(state, ratings)`` from the joint, hyperpriors first."""
    movie_prior = sample_normal_wishart(HYPERPRIOR, rng)
    user_prior = sample_normal_wishart(HYPERPRIOR, rng)
    state = BPMFState(user_factors=_factors(user_prior, N_USERS, rng),
                      movie_factors=_factors(movie_prior, N_MOVIES, rng),
                      user_prior=user_prior, movie_prior=movie_prior)
    return state, _ratings(state, rng)


def statistics(state: BPMFState, ratings: np.ndarray) -> np.ndarray:
    """First and second moments of U, V, mu, Lambda, and cross terms that
    tie the factors to the ratings they explain.  The rating terms go
    through ``tanh``: products of four Gaussians are heavy-tailed enough
    to make a chain's standard error unreliable, bounded ones are not."""
    u, v = state.user_factors, state.movie_factors
    mu_u, mu_v = state.user_prior.mean, state.movie_prior.mean
    lam_u, lam_v = state.user_prior.precision, state.movie_prior.precision
    fit = np.einsum("ij,ij->i", u[USERS], v[MOVIES])
    return np.array([
        u[0, 0], u[3, 1], u[5, 0], v[0, 0], v[4, 1],
        u[3, 0] ** 2, u[5, 1] ** 2, v[1, 0] ** 2,
        mu_u[0], mu_v[1], mu_u[0] * u[2, 0],
        lam_u[0, 0], lam_u[0, 1], lam_v[1, 1],
        u[0] @ v[0], u[5] @ v[2],
        *np.tanh(ratings[[0, 5, -1]] * fit[[0, 5, -1]]),
        np.tanh(ratings[3] ** 2), np.mean(np.tanh(ratings * fit)),
    ])


def marginal_conditional(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.array([statistics(*forward_draw(rng)) for _ in range(n)])


def _matrix(ratings: np.ndarray) -> RatingMatrix:
    return RatingMatrix.from_arrays(N_USERS, N_MOVIES, USERS, MOVIES, ratings)


def _sequential_step(engine: str):
    sampler = GibbsSampler(CONFIG, SamplerOptions(engine=engine,
                                                  policy=POLICY))

    def step(state, ratings, rng):
        sampler.sweep(state, _matrix(ratings), rng)

    return step


def _two_rank_step():
    """One sweep of the rank program on a 2-rank simulated world: every
    rank sweeps its own copy of the state, then the owners' rows are
    merged back (the last sweep of a run gathers them the same way)."""
    sampler = DistributedGibbsSampler(CONFIG, DistributedOptions(
        n_ranks=2, policy=POLICY))
    structure = _matrix(np.zeros(USERS.shape[0]))
    partition = partition_ratings(structure, 2)
    plan = build_comm_plan(structure, partition)
    users = [partition.users_of(rank) for rank in range(2)]
    movies = [partition.movies_of(rank) for rank in range(2)]

    def layout(rank: int) -> RankLayout:
        phases = ("movies", "users")
        return RankLayout(rank, users, movies, [np.arange(0)] * 2,
                          {name: plan.schedule(name, rank) for name in phases},
                          {name: plan.inbox(name, rank) for name in phases})

    def step(state, ratings, rng):
        matrix = _matrix(ratings)
        rngs = [rng, copy.deepcopy(rng)]

        def program(comm):
            mine = state.copy()
            blocks = sampler._blocks(layout(comm.rank), mine, matrix)
            sampler._sweep(comm, blocks, mine, rngs[comm.rank])
            return mine

        swept = SimCommWorld(2).run(program)
        for rank, theirs in enumerate(swept):
            state.user_factors[users[rank]] = theirs.user_factors[users[rank]]
            state.movie_factors[movies[rank]] = \
                theirs.movie_factors[movies[rank]]
        state.user_prior, state.movie_prior = (swept[0].user_prior,
                                               swept[0].movie_prior)

    return step


def successive_conditional(n: int, seed: int, step) -> np.ndarray:
    rng = np.random.default_rng(seed)
    state, ratings = forward_draw(rng)
    draws = []
    for _ in range(n):
        step(state, ratings, rng)
        ratings = _ratings(state, rng)
        draws.append(statistics(state, ratings))
    return np.array(draws)


def z_scores(marginal: np.ndarray, successive: np.ndarray) -> np.ndarray:
    """Mean differences over standard errors; the successive-conditional
    error uses each trace's effective sample size."""
    ess = np.array([effective_sample_size(trace) for trace in successive.T])
    error = np.sqrt(marginal.var(axis=0, ddof=1) / marginal.shape[0]
                    + successive.var(axis=0, ddof=1) / ess)
    return (marginal.mean(axis=0) - successive.mean(axis=0)) / error


def test_policy_puts_the_model_in_every_regime():
    degrees = set(np.bincount(USERS, minlength=N_USERS)) \
        | set(np.bincount(MOVIES, minlength=N_MOVIES))
    assert {POLICY.choose(int(d)) for d in degrees} == set(UpdateMethod)
    assert 0 in degrees


def test_batched_sweep_samples_the_joint():
    """The tier-1 slice: the default engine's sweep."""
    z = z_scores(marginal_conditional(4000, seed=1),
                 successive_conditional(4000, seed=2,
                                        step=_sequential_step("batched")))
    assert np.abs(z).max() < Z_MAX, z.round(2)


@pytest.mark.stat
@pytest.mark.parametrize("step", [lambda: _sequential_step("reference"),
                                  _two_rank_step],
                         ids=["reference", "two_rank_sim"])
def test_long_form_samples_the_joint(step):
    z = z_scores(marginal_conditional(20000, seed=3),
                 successive_conditional(20000, seed=4, step=step()))
    assert np.abs(z).max() < Z_MAX, z.round(2)
