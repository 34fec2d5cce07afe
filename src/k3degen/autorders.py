"""Order and characteristic-polynomial constraints for non-symplectic
automorphisms of K3 surfaces.

The transcendental part of H^2 carries the automorphism action, and its
characteristic polynomial is forced to be cyclotomic of a very restricted
shape depending on the arithmetic setting: a power of Phi_m in
characteristic 0, a power of Phi_{m p^e} for liftable automorphisms or over
finite fields, and a product of such factors in the finite-height case.
Supersingular surfaces obey the divisibility m | p^{sigma0} + 1 instead.
"""

from __future__ import annotations

from ._record import Record
from .cyclotomic import CycloFactorization, _primes, euler_phi

CHAR0 = "char0"
LIFTABLE = "liftable"
FINITE_HEIGHT = "finite-height"
FINITE_FIELD = "finite-field"

# K3 transcendental rank is at most 21: the Neron-Severi rank is >= 1.
# This cap also reproduces the prime-power enumeration with 23 excluded
# (phi(23) = 22).
_RANK_CAP = 21


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the 13 prime bases 2..41.

    It is proven correct below psi_13 = 3317044064679887385961981, the least
    strong pseudoprime to all of them (Sorenson-Webster, Math. Comp. 86,
    2017); larger n raise ValueError, as no certificate covers them.
    """
    if n >= _MR_BOUND:
        raise ValueError(f"primality is only decided below {_MR_BOUND}, got {n}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class CharSetting(Record):
    """The arithmetic setting an automorphism lives in.

    kind is one of char0, liftable, finite-height, finite-field; the last
    three carry the residue characteristic p. The finite-height and
    finite-field cases require p > 2; liftable automorphisms exist in
    characteristic 2 as well.
    """

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None):
        if kind == CHAR0:
            if p is not None:
                raise ValueError("char0 takes no characteristic")
        elif kind not in (LIFTABLE, FINITE_HEIGHT, FINITE_FIELD):
            raise ValueError(f"unknown setting kind {kind!r}")
        elif p is None or not is_prime(p):
            raise ValueError(f"setting {kind!r} needs a prime characteristic, got {p!r}")
        elif kind in (FINITE_HEIGHT, FINITE_FIELD) and p == 2:
            raise ValueError(f"setting {kind!r} requires p > 2")
        self._set(kind, p)


def _power_candidates(m: int, p: int, t_rank: int):
    """(m * p^e, its totient) for e >= 0 while the totient fits in t_rank.
    p does not divide m, so phi(m p^e) = phi(m) (p - 1) p^(e - 1)."""
    out = []
    index, phi, step = m, euler_phi(m), p - 1
    while phi <= t_rank:
        out.append((index, phi))
        index, phi, step = index * p, phi * step, p
    return out


def admissible_transcendental_charpolys(m: int, setting: CharSetting, t_rank: int) -> list[CycloFactorization]:
    """All characteristic polynomials the transcendental action can have.

    m is the order of the automorphism's image on the 2-forms, t_rank the
    rank of the transcendental lattice. The result lists cyclotomic
    factorizations of total degree t_rank, empty when none exists.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if not 1 <= t_rank <= _RANK_CAP:
        raise ValueError(f"t_rank must lie in 1..{_RANK_CAP}, got {t_rank}")
    p = setting.p
    if p is not None and m % p == 0:
        raise ValueError(f"p = {p} must not divide m = {m} in a characteristic-p setting")
    # every index n is a multiple of m, and euler_phi(n) >= sqrt(n / 2) > t_rank
    if m > 2 * t_rank * t_rank:
        return []

    # char 0 is the e = 0 single power
    candidates = [(m, euler_phi(m))] if setting.kind == CHAR0 else _power_candidates(m, p, t_rank)
    if setting.kind != FINITE_HEIGHT:
        return [CycloFactorization({index: t_rank // phi}) for index, phi in candidates if t_rank % phi == 0]

    # finite height: any multiset of factors Phi_{m p^{e_i}} filling t_rank
    solutions = []

    def fill(pos, remaining, chosen):
        if remaining == 0:
            solutions.append(CycloFactorization(dict(chosen)))
            return
        if pos == len(candidates):
            return
        index, phi = candidates[pos]
        max_mult = remaining // phi
        for mult in range(max_mult, -1, -1):
            if mult:
                chosen[index] = mult
            elif index in chosen:
                del chosen[index]
            fill(pos + 1, remaining - mult * phi, chosen)
        chosen.pop(index, None)

    fill(0, t_rank, {})
    solutions.sort(key=lambda f: sorted(f.factors.items()))
    return solutions


def wild_prime_powers(max_t: int) -> list[int]:
    """All prime powers p^e (e >= 1) with euler_phi(p^e) <= max_t, sorted.

    These are the prime-power twists that can enter the cyclotomic index in
    positive characteristic, bounded by the degree available in H^2. Every
    such p has p - 1 <= max_t, and phi(p^e) = (p - 1) p^(e - 1); max_t <= 10**5
    keeps the prime sieve bounded.
    """
    if not 1 <= max_t <= 10**5:
        raise ValueError(f"max_t must lie in 1..100000, got {max_t}")
    powers = []
    for p in _primes(max_t + 1):
        q, phi = p, p - 1
        while phi <= max_t:
            powers.append(q)
            q, phi = q * p, phi * p
    powers.sort()
    return powers


def nygaard_sigma0(m: int, p: int) -> list[int]:
    """Artin invariants sigma0 in 1..10 with m dividing p^sigma0 + 1.

    An empty list means no supersingular K3 surface in characteristic p
    carries an automorphism acting on the 2-forms with order m.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    return [s for s in range(1, 11) if (pow(p, s, m) + 1) % m == 0]


def order_decomposition(n: int, p: int) -> tuple[int, int]:
    """Split n = p^e * n' with p not dividing n'; returns (e, n')."""
    if n < 1:
        raise ValueError("n must be positive")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e, n
