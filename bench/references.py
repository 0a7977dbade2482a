"""Reference results for the benchmark's kernels, computed with NumPy alone.

None of these functions calls into eklc, so a wrong answer from the
compiler or its evaluator cannot be hidden by the same mistake here.
`test_references.py` checks each of them against eklc's independent
oracle evaluator on small shapes.
"""

from __future__ import annotations

import numpy as np


def sumfact_source(n: int, scalar: str) -> str:
    """The sum-factorization kernel of the paper at extent `n`."""
    return (
        f"kernel sumfact(in S: {scalar}[{n}, {n}], "
        f"in u: {scalar}[{n}, {n}, {n}], out t: {scalar}[{n}, {n}, {n}]) "
        "{ let t[i, j, k] =+ (l, m, n) S[l, i] * S[m, j] * S[n, k] * u[l, m, n]; }\n"
    )


def sumfact(S: np.ndarray, u: np.ndarray) -> np.ndarray:
    """t[i, j, k] = sum over l, m, n of S[l, i] S[m, j] S[n, k] u[l, m, n].

    Object arrays of `Fraction` go through `tensordot`, which keeps them
    exact; float arrays go through `einsum`.
    """
    if S.dtype == object:
        a = np.tensordot(S, u, axes=([0], [0]))  # a[i, m, n]
        b = np.tensordot(a, S, axes=([1], [0]))  # b[i, n, j]
        return np.tensordot(b, S, axes=([1], [0]))  # t[i, j, k]
    return np.einsum("li,mj,nk,lmn->ijk", S, S, S, u)


def _stencil(idx: np.ndarray) -> np.ndarray:
    """idx[..., None] + (0, 1): the two table rows an interpolation reads."""
    return idx[..., None] + np.arange(2)


def major_gather(C, j_T, j_eta, j_p, f_major, f_mix) -> np.ndarray:
    """tau[b, x, G] = sum over dT, deta, dp of
    C[b, j_T[x]+dT, j_eta[x, b, dT]+deta, j_p[x]+dp, G]
    * f_major[x, b, dT, deta, dp] * f_mix[x, b, dT], in float64."""
    n_b = C.shape[0]
    b = np.arange(n_b)[None, :, None, None, None]
    t = _stencil(j_T)[:, None, :, None, None]
    e = _stencil(j_eta)[:, :, :, :, None]
    p = _stencil(j_p)[:, None, None, None, :]
    table = np.asarray(C, dtype=np.float64)[b, t, e, p]  # [x, b, dT, deta, dp, G]
    weight = np.asarray(f_major, dtype=np.float64) * np.asarray(
        f_mix, dtype=np.float64
    )[:, :, :, None, None]
    return np.einsum("xbtepg,xbtep->bxg", table, weight)


def taumol_sw(inputs: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Both outputs of `corpus/taumol_sw.ekl`, in float64."""
    f = {k: np.asarray(v, dtype=np.float64) for k, v in inputs.items()}
    j_T = np.asarray(inputs["j_T"])
    w_T = np.stack([1.0 - f["f_T"], f["f_T"]], axis=-1)  # [x, b, dT]
    w_eta = np.stack([1.0 - f["f_eta"], f["f_eta"]], axis=-1)  # [x, b, deta]
    w_p = np.stack([1.0 - f["f_p"], f["f_p"]], axis=-1)  # [x, dp]
    f_major = (
        w_T[:, :, :, None, None] * w_eta[:, :, None, :, None] * w_p[:, None, None, None, :]
    )
    f_mix = w_T * f["eta_half"][:, :, None]
    tau_maj = major_gather(
        f["C_K_MAJOR"], j_T, np.asarray(inputs["j_eta"]), np.asarray(inputs["j_p"]),
        f_major, f_mix,
    )
    k_minor = f["K_MINOR"][:, _stencil(j_T), :]  # [m, x, dT, G]
    tau_min = np.einsum("mxtg,xbm,xbt->bxg", k_minor, f["scale_min"], w_T)
    k_ray = f["K_RAY"][_stencil(j_T), :]  # [x, dT, G]
    tau_ray = np.einsum("xtg,xb,xbt->bxg", k_ray, f["col_dry"], w_T)
    return {"tau_maj": tau_maj, "tau_tot": tau_maj + tau_min + tau_ray}


def taumol_small(inputs: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The output of `corpus/mini/taumol_small.ekl`, in float64."""
    tau = major_gather(
        inputs["C_K"], np.asarray(inputs["j_T"]), np.asarray(inputs["j_eta"]),
        np.asarray(inputs["j_p"]), inputs["f_major"], inputs["f_mix"],
    )
    return {"tau": tau}
