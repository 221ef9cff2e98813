"""Dense complex linear-algebra primitives.

Hermitian eigensolver with a reproducible eigenvector gauge, unitary polar
retraction, Pfaffian by skew-symmetric elimination, loop winding numbers,
and fractional powers of unitary matrices with a branch-tracked logarithm.
Everything here is a pure function of its inputs and needs numpy alone.
"""

from __future__ import annotations

import numpy as np

from .errors import BranchError, DomainError, LoopStepError, ResolutionError, SingularityError

HERMITICITY_TOL = 1e-10
SKEW_TOL = 1e-9
MAGNITUDE_FLOOR = 1e-10
MAX_LOOP_STEP = np.pi / 2
LEAD_FLOOR = 1e-8        # smallest component that fixes an eigenvector's phase
BRANCH_CUT_GAP = 1e-3    # narrowest eigenphase gap a log branch cut may use
POLAR_SWEEPS = 16        # Newton-Schulz sweeps before polar_unitary takes the SVD
POLAR_TOL = 1e-14        # largest |X^dagger X - I| of a converged polar iterate
# real multiply-adds per block of a row-blocked product: small enough that
# BLAS runs it on the calling thread and its operands stay in cache
PRODUCT_BLOCK = 1 << 17


def max_abs(a) -> float:
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def blocked_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for real 2-D a and b, taken in blocks of rows of a of at most
    PRODUCT_BLOCK multiply-adds."""
    out = np.empty((a.shape[0], b.shape[1]))
    rows = max(1, PRODUCT_BLOCK // b.size)
    for start in range(0, a.shape[0], rows):
        np.matmul(a[start:start + rows], b, out=out[start:start + rows])
    return out


def fix_phases(v: np.ndarray) -> np.ndarray:
    """Rescale each column so its first significant component is real positive.

    Works on stacks of matrices; the last two axes are (component, column).
    """
    v = np.array(v, dtype=complex, copy=True)
    lead = np.argmax(np.abs(v) > LEAD_FLOOR, axis=-2)
    taken = np.take_along_axis(v, lead[..., None, :], axis=-2)[..., 0, :]
    phases = taken / np.abs(taken)
    v *= phases.conj()[..., None, :]
    return v


def eigh_many(hs: np.ndarray):
    """Eigendecomposition of a stack of Hermitian matrices (m, n, n).

    Eigenvalues ascend and each eigenvector's first significant component is
    made real positive, so repeated runs give identical frames.
    """
    hs = np.asarray(hs, dtype=complex)
    if max_abs(hs - hs.conj().transpose(0, 2, 1)) > HERMITICITY_TOL:
        raise DomainError("batch contains a non-Hermitian matrix")
    w, v = np.linalg.eigh(hs)
    return w, fix_phases(v)


def polar_unitary(a: np.ndarray) -> np.ndarray:
    """Unitary factor of the polar decomposition A = U P, for a matrix or a
    stack of them (last two axes).

    For a tall matrix this is the closest matrix with orthonormal columns in
    Frobenius distance.  A matrix whose |A^dagger A - I| is at most
    POLAR_TOL is unitary already and comes back untouched.  The others of a
    1x1 or 2x2 stack take closed forms: z / |z|, and
    U = (M + e^{i arg det M} adj(M)^dagger) / sqrt(|M|_F^2 + 2 |det M|),
    since adj(M)^dagger = conj(det M) U P^-1 and P + |det M| P^-1 =
    (sigma_1 + sigma_2) I.  Every other stack runs the Newton-Schulz
    iteration X <- X (3 - X^dagger X) / 2 at once, which converges to U
    when every singular value lies in (0, sqrt(3)); a matrix leaves it when
    |X^dagger X - I| <= POLAR_TOL.  Before the first update, a matrix whose
    Gram matrix A^dagger A has an absolute row sum of 3 or more is divided
    by the root of the largest one, which bounds sigma_max^2; a positive
    scale does not change U.  A matrix still iterating after POLAR_SWEEPS
    sweeps takes the SVD instead.
    Near-singular inputs (smallest singular value at or below 1e-10) grow
    by at most 3/2 a sweep, never converge within the cap, and the SVD
    refuses them, anywhere in the stack; the closed forms refuse them alike,
    with sigma_min = |det M| / sigma_max.  The caller must jitter or refine
    instead of silently accepting a garbage direction.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-2] < a.shape[-1]:
        raise DomainError("polar_unitary expects square or tall matrices")
    stack = a.reshape((-1,) + a.shape[-2:])
    eye = np.eye(a.shape[-1])
    closed = a.shape[-2] == a.shape[-1] <= 2   # after sweep 0, 1x1 and 2x2 take closed forms
    x = stack
    gram = np.swapaxes(x.conj(), -1, -2) @ x
    u = np.empty_like(stack)
    todo = np.arange(len(stack))
    for sweep in range(POLAR_SWEEPS + 1):
        done = np.max(np.abs(gram - eye), axis=(-2, -1), initial=0.0) <= POLAR_TOL
        u[todo[done]] = x[done]
        todo, x, gram = todo[~done], x[~done], gram[~done]
        if not todo.size or sweep == POLAR_SWEEPS or closed:
            break
        if sweep == 0:  # sigma_max^2 is at most the Gram matrix's largest absolute row sum
            bound = np.max(np.sum(np.abs(gram), axis=-1), axis=-1)
            scale = np.where(bound >= 3.0, bound, 1.0)[:, None, None]
            x, gram = x / np.sqrt(scale), gram / scale
        x = x @ (1.5 * eye - 0.5 * gram)
        gram = np.swapaxes(x.conj(), -1, -2) @ x
    if todo.size:
        u[todo] = _closed_polar(stack[todo]) if closed else _svd_polar(stack[todo])
    return u.reshape(a.shape)


def _refuse_near_singular(smallest: float) -> None:
    if not smallest > 1e-10:  # a NaN is refused as well
        raise SingularityError(
            f"smallest singular value {smallest:.3e} <= 1e-10; input is near-singular"
        )


def _svd_polar(m: np.ndarray) -> np.ndarray:
    w, s, vh = np.linalg.svd(m, full_matrices=False)
    _refuse_near_singular(float(np.min(s[..., -1])))
    return w @ vh


def _closed_polar(m: np.ndarray) -> np.ndarray:
    """Polar factors of a stack of 1x1 or 2x2 matrices (see polar_unitary)."""
    if m.shape[-1] == 1:
        modulus = np.abs(m)
        _refuse_near_singular(float(np.min(modulus)))
        return m / modulus
    det = leibniz_det(m)
    mod = np.abs(det)
    frob = np.sum(np.abs(m) ** 2, axis=(-2, -1))
    # sigma_1 + sigma_2 and sigma_1 - sigma_2 from |M|_F^2 and |det M| = sigma_1 sigma_2
    total = np.sqrt(frob + 2.0 * mod)
    largest = 0.5 * (total + np.sqrt(np.maximum(frob - 2.0 * mod, 0.0)))
    _refuse_near_singular(float(np.min(mod / np.where(largest > 0.0, largest, 1.0))))
    adj_dagger = m[:, ::-1, ::-1].conj() * np.array([[1.0, -1.0], [-1.0, 1.0]])
    return (m + (det / mod)[:, None, None] * adj_dagger) / total[:, None, None]


def leibniz_det(m: np.ndarray) -> np.ndarray:
    """Determinants of a stack of 1x1, 2x2 or 3x3 matrices (last two axes),
    summed over permutations by the Leibniz formula."""
    n = m.shape[-1]
    if n == 1:
        return m[..., 0, 0]
    if n == 2:
        return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    if n != 3:
        raise DomainError("leibniz_det takes 1x1, 2x2 or 3x3 matrices")
    return (m[..., 0, 0] * (m[..., 1, 1] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 1])
            + m[..., 0, 1] * (m[..., 1, 2] * m[..., 2, 0] - m[..., 1, 0] * m[..., 2, 2])
            + m[..., 0, 2] * (m[..., 1, 0] * m[..., 2, 1] - m[..., 1, 1] * m[..., 2, 0]))


def pfaffian(s: np.ndarray):
    """Pfaffian of an even-dimensional skew-symmetric matrix, or of each
    matrix in a stack (last two axes).

    Skew-symmetric (Parlett-Reid style) elimination with partial pivoting,
    O(n^3), run on the whole stack at once; a matrix whose pivot vanishes
    gets 0.  pf(S)^2 = det(S) is the accuracy contract, checked in tests.
    A single matrix gives a complex scalar, a stack an array of its shape
    without the last two axes.
    """
    a = np.array(s, dtype=complex, copy=True)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DomainError("pfaffian expects square matrices")
    n = a.shape[-1]
    if n % 2 != 0:
        raise DomainError("pfaffian requires even dimension")
    if max_abs(a + np.swapaxes(a, -1, -2)) > SKEW_TOL:
        raise DomainError("matrix is not skew-symmetric within 1e-9")
    batch = a.shape[:-2]
    a = a.reshape((int(np.prod(batch)), n, n))
    pf = np.ones(a.shape[0], dtype=complex)
    vanished = np.zeros(a.shape[0], dtype=bool)
    for k in range(0, n - 1, 2):
        kp = k + 1 + np.argmax(np.abs(a[:, k + 1:, k]), axis=1)
        swap = np.flatnonzero(kp != k + 1)
        if swap.size:
            p = kp[swap]
            a[swap, k + 1, k:], a[swap, p, k:] = a[swap, p, k:], a[swap, k + 1, k:]
            a[swap, k:, k + 1], a[swap, k:, p] = a[swap, k:, p], a[swap, k:, k + 1]
            pf[swap] = -pf[swap]
        vanished |= np.abs(a[:, k + 1, k]) < 1e-300
        pivot = a[:, k, k + 1]
        pf *= pivot
        if k + 2 < n:
            # a vanished matrix keeps eliminating with a unit pivot; its
            # result is discarded below
            tau = a[:, k, k + 2:] / np.where(vanished, 1.0, pivot)[:, None]
            col = a[:, k + 2:, k + 1]
            a[:, k + 2:, k + 2:] += (
                tau[:, :, None] * col[:, None, :] - col[:, :, None] * tau[:, None, :]
            )
    pf[vanished] = 0.0
    if not batch:
        return complex(pf[0])
    return pf.reshape(batch)


def winding_number(samples) -> int:
    """Winding number of a closed loop of nonvanishing complex samples, from
    principal-value phase increments; sample i sits at angle 2*pi*i/L and the
    loop wraps.

    Raises DomainError for fewer than 4 samples or a magnitude at or below
    MAGNITUDE_FLOOR, and LoopStepError (a ResolutionError) when any step
    reaches MAX_LOOP_STEP: the loop is under-resolved.  The error quotes the
    largest step, the loop length and the samples joined by the lowest step
    within 1e-9 rad of it, so rounding cannot pick one of two tied steps
    (tau pairs those of a sphere equator).
    """
    z = np.asarray(samples, dtype=complex).ravel()
    if z.size < 4:
        raise DomainError("a phase loop needs at least 4 samples")
    small = np.abs(z) <= MAGNITUDE_FLOOR
    if np.any(small):
        raise DomainError(
            f"{int(small.sum())} loop samples at or below magnitude floor "
            f"{MAGNITUDE_FLOOR:g}"
        )
    steps = np.angle(np.roll(z, -1) / z)  # steps[i] runs from sample i to i + 1
    worst = float(np.max(np.abs(steps)))
    if worst >= MAX_LOOP_STEP:
        at = int(np.argmax(np.abs(steps) >= worst - 1e-9))
        raise LoopStepError(
            f"phase step {worst:.4f} rad >= pi/2 between samples {at} and "
            f"{(at + 1) % z.size} of {z.size}; loop under-resolved, refine sampling"
        )
    total = float(steps.sum()) / (2.0 * np.pi)
    w = round(total)
    if abs(total - w) > 1e-6:
        raise ResolutionError(f"winding sum {total!r} is not integral")
    return int(w)


def det_winding(samples: np.ndarray) -> int:
    """Winding number of det over a loop of square matrices (L, n, n)."""
    return winding_number(np.linalg.det(samples))


def unitary_powers(u: np.ndarray, t: float | np.ndarray) -> np.ndarray:
    """u^t for a unitary matrix u; an array of exponents gives a stack of powers.

    u is diagonalized by np.linalg.eig and the eigenvectors are made
    orthonormal by polar_unitary: for a normal matrix, eigenvectors of
    distinct eigenvalues are already orthogonal, so this Lowdin step mixes
    columns only within one eigenspace.  The log branch cut is placed in the
    middle of the largest gap of the eigenphase spectrum on the unit circle,
    so u^t = Q exp(i t phases) Q^dagger varies continuously in t and never
    jumps across an eigenvalue.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DomainError("unitary_powers expects a square matrix")
    d, q = np.linalg.eig(u)
    try:
        q = polar_unitary(q)
    except SingularityError:  # defective eigenvectors: u is not even normal
        raise DomainError("matrix is not unitary") from None
    if max_abs((q * d) @ q.conj().T - u) > 1e-8 or max_abs(np.abs(d) - 1.0) > 1e-6:
        raise DomainError("matrix is not unitary")
    ph = np.angle(d)
    order = np.sort(ph)
    if order.size == 1:
        cut = order[0] + np.pi
    else:
        gaps = np.diff(order)
        wrap = 2.0 * np.pi - (order[-1] - order[0])
        i = int(np.argmax(gaps))
        if gaps[i] >= wrap:
            widest, cut = gaps[i], 0.5 * (order[i] + order[i + 1])
        else:
            widest, cut = wrap, order[-1] + 0.5 * wrap
        if widest < BRANCH_CUT_GAP:
            raise BranchError("eigenphases leave no usable branch-cut gap")
    # phases live in (cut - 2*pi, cut], all at distance >= gap/2 from the cut
    rebased = cut - np.mod(cut - ph, 2.0 * np.pi)
    e = np.exp(1j * np.asarray(t, dtype=float)[..., None] * rebased)
    return (q * e[..., None, :]) @ q.conj().T
