"""Six frozen worked instances with independently derived expected values.

Every number here was computed away from the main engine before being
written down: lengths by the dense degreewise rank oracle and staircase
counting in tests/oracles.py, determinants by permutation expansion,
multiplicity coefficients by an exact Cramer solve of the binomial fit.
The engine is required to reproduce them all; see verify.check_corpus.
"""

from dataclasses import dataclass, field

from .dsl import parse


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    description: str
    text: str
    dim: int
    lam: tuple
    coefficients: tuple
    len_f: int
    len_i: int
    mu: int
    parameter: bool
    h_by_t: dict = field(hash=False)

    @property
    def e0(self):
        return self.coefficients[0]

    def spec(self):
        return parse(self.text)

    def chi_by_t(self):
        """Alternating partial sums of the frozen homology lengths."""
        out = {}
        for t, hs in self.h_by_t.items():
            acc = 0
            chis = []
            for h in reversed(hs):
                acc = h - acc
                chis.append(acc)
            out[t] = tuple(reversed(chis))
        return out


E1 = CorpusEntry(
    name="E1",
    description="ideal (x^2, y^3) in F_101[x, y]; a complete intersection",
    text="""ring {
  p = 101
  vars = [x, y]
  ideal = []
}
module {
  rank = 1
  matrix = [[x^2, y^3]]
}
""",
    dim=2,
    # powers of a monomial ideal: lam(k) = len(A/(x^2, y^3)^k) counted on
    # the staircase, which works out to 6*C(k+1, 2)
    lam=(6, 18, 36, 60, 90),
    coefficients=(6, 0, 0),
    len_f=6,
    len_i=6,
    mu=2,
    parameter=True,
    # regular sequence: the complex resolves A/(x^2, y^3) at every t
    h_by_t={-1: (6, 0, 0), 0: (6, 0, 0), 1: (6, 0, 0), 2: (6, 0, 0)},
)

E2 = CorpusEntry(
    name="E2",
    description="principal ideal (y) over the non-Cohen-Macaulay ring F_101[x, y]/(x^2, x*y)",
    text="""ring {
  p = 101
  vars = [x, y]
  ideal = [x^2, x*y]
}
module {
  rank = 1
  matrix = [[y]]
}
""",
    dim=1,
    # A has basis 1, x, y, y^2, ... and y^k A has basis y^k, y^(k+1), ...,
    # so lam(k) = len(A/y^k) = k + 1 (the x survives every power)
    lam=(2, 3, 4, 5),
    coefficients=(1, -1),
    len_f=2,
    len_i=2,
    mu=1,
    parameter=True,
    # multiplicity 1 but colength 2: the strict inequality case, with the
    # defect showing up as H_1 = (socle element x) of length 1
    h_by_t={-1: (2, 1), 0: (2, 1), 1: (2, 1)},
)

E3 = CorpusEntry(
    name="E3",
    description="diagonal matrix diag(x, x) of rank 2 over F_101[x]",
    text="""ring {
  p = 101
  vars = [x]
  ideal = []
}
module {
  rank = 2
  matrix = [
    [x, 0],
    [0, x]
  ]
}
""",
    dim=1,
    # products of k columns span x^k S_k(A^2), so lam(k) = k*(k+1)
    lam=(2, 6, 12, 20, 30),
    coefficients=(2, 0, 0),
    len_f=2,
    len_i=2,
    mu=2,
    parameter=True,
    h_by_t={-1: (2, 0), 0: (2, 0), 1: (2, 0)},
)

E4 = CorpusEntry(
    name="E4",
    description="diag(y, y) of rank 2 over F_101[x, y]/(x^2, x*y)",
    text="""ring {
  p = 101
  vars = [x, y]
  ideal = [x^2, x*y]
}
module {
  rank = 2
  matrix = [
    [y, 0],
    [0, y]
  ]
}
""",
    dim=1,
    # S_k(A^2)/R_k is k+1 copies of A/(y^k), each of length k + 1,
    # so lam(k) = (k+1)^2 and the binomial fit gives (2, -1, 1)
    lam=(4, 9, 16, 25, 36),
    coefficients=(2, -1, 1),
    len_f=4,
    len_i=3,
    mu=2,
    parameter=True,
    # the two colengths differ (4 vs 3) and both exceed e_0 = 2; the
    # determinant complex (t = 0) sees the shorter quotient A/(y^2)
    h_by_t={-1: (4, 2), 0: (3, 1), 1: (4, 2)},
)

E5 = CorpusEntry(
    name="E5",
    description="2 x 3 matrix [[x, y, 0], [0, x, y]] of linear forms over F_101[x, y]",
    text="""ring {
  p = 101
  vars = [x, y]
  ideal = []
}
module {
  rank = 2
  matrix = [
    [x, y, 0],
    [0, x, y]
  ]
}
""",
    dim=2,
    # maximal minors (x^2, x*y, y^2) cut out the origin; brute-force
    # expansion of the column products gives lam(k) = 3*C(k+2, 3)
    lam=(3, 12, 30, 60, 105, 168),
    coefficients=(3, 0, 0, 0),
    len_f=3,
    len_i=3,
    mu=3,
    parameter=True,
    h_by_t={-1: (3, 0, 0), 0: (3, 0, 0), 1: (3, 0, 0), 2: (3, 0, 0)},
)

E6 = CorpusEntry(
    name="E6",
    description="the three quadrics (x^2, x*y, y^2) in F_101[x, y]; one generator too many",
    text="""ring {
  p = 101
  vars = [x, y]
  ideal = []
}
module {
  rank = 1
  matrix = [[x^2, x*y, y^2]]
}
""",
    dim=2,
    # powers are full power ideals of the maximal ideal: lam(k) =
    # len(A/m^(2k)) = C(2k+1, 2) = k*(2k+1); the fit gives (4, 1, 0)
    lam=(3, 10, 21, 36, 55),
    coefficients=(4, 1, 0),
    len_f=3,
    len_i=3,
    mu=3,
    # three generators where dim + rank - 1 = 2: not a parameter module,
    # and the alternating sum of homology lengths collapses to zero
    parameter=False,
    h_by_t={-1: (3, 3, 0, 0), 0: (3, 3, 0, 0), 1: (3, 3, 0, 0), 2: (3, 3, 0, 0)},
)


ENTRIES = (E1, E2, E3, E4, E5, E6)


def by_name(name):
    for entry in ENTRIES:
        if entry.name == name:
            return entry
    raise KeyError(name)
