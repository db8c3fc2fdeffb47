"""Exact solver and analysis toolkit for the N-player two-color hat
guessing game.

Players see everyone's hat but their own and simultaneously guess their
own color or pass; the team wins when at least one guess is right and none
is wrong.  The deterministic optimal strategies are characterized by their
loss sets, which are exactly the radius-1 covering codes of the hat cube;
this package enumerates them, optimizes them exactly for biased coins,
synthesizes the corresponding decision matrices, and verifies everything
against independent brute-force oracles.

Names are loaded on first use (PEP 562), so ``import hatgame`` or
``hatgame.cli`` imports only the modules a caller touches.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Public name -> the module that defines it.
_HOMES = {
    "FREE": "core",
    "GUESS_BLACK": "core",
    "GUESS_WHITE": "core",
    "MAX_PLAYERS": "core",
    "PASS": "core",
    "DecisionMatrix": "core",
    "GameParams": "core",
    "HatGameError": "core",
    "ResourceLimitError": "core",
    "bits": "core",
    "config_probability": "core",
    "evaluate_matrix": "core",
    "flip": "core",
    "losing_configs": "core",
    "score": "core",
    "score_vector": "core",
    "wins": "core",
    "AdequateSet": "adequate",
    "NoAdequateSetError": "adequate",
    "Signature": "adequate",
    "ball_mask": "adequate",
    "enumerate_adequate": "adequate",
    "is_adequate": "adequate",
    "is_adequate_hamming": "adequate",
    "min_cover_optimize": "adequate",
    "min_cover_size": "adequate",
    "optimal_sets": "adequate",
    "set_probability": "adequate",
    "signature": "adequate",
    "size_sweep": "adequate",
    "all_matrices_for_set": "strategy",
    "brute_force_optimal": "strategy",
    "dedupe_player_permutation": "strategy",
    "free_invariance_check": "strategy",
    "matrix_from_set": "strategy",
    "COVERING_CODE_SIZE": "analysis",
    "complexity_table": "analysis",
    "count_optimal_sets": "analysis",
    "covering_check": "analysis",
    "dominance": "analysis",
    "dominance_graph": "analysis",
    "psi_closed_form": "analysis",
    "psi_curve": "analysis",
    "psi_solver": "analysis",
    "signature_poly": "analysis",
    "Poly": "polys",
    "SQRT2_MINUS_1": "polys",
    "Sqrt2Num": "polys",
    "TWO_MINUS_SQRT2": "polys",
}

#: Submodules reachable as attributes after a bare ``import hatgame``, as
#: when the package imported them all.
_SUBMODULES = ("core", "adequate", "strategy", "polys", "analysis")

__all__ = sorted(_HOMES)


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module("." + name, __name__)
    if name not in _HOMES:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(import_module("." + _HOMES[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
