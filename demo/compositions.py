"""Certificate chains from composition operators.

Small optimal witnesses compose into certificates for much larger grids:
a blowup of the optimal 7-rook covering of H(3,3) certifies a(6,3,2) <= 28,
stacking an optimal packing certifies b(n,k+1,l) >= n * b(n,k,l), and the
extension step grows a covering of H(n,k) into one of H(n+1,k).
"""

from rookpack.core import GridParams
from rookpack.constructions import (
    blowup_covering,
    blowup_two_packing,
    c_k2_construction,
    diagonal_covering,
    extend_covering,
    stack,
)
from rookpack.solve import exact_min_covering, exact_max_packing
from rookpack.verify import verify_covering, verify_packing, verify_two_packing


def main():
    base = exact_min_covering(GridParams(3, 3, 2))
    blown = blowup_covering(base.witness, 2)
    assert verify_covering(blown).valid
    print(f"blowup: {base.optimum}-rook optimum for H(3,3) -> "
          f"{len(blown)}-rook covering of H({blown.params.n},3), so a(6,3,2) <= {len(blown)}")

    pack = exact_max_packing(GridParams(3, 2, 2))
    stacked = stack(pack.witness)
    assert verify_packing(stacked).valid
    print(f"stack: b(3,2,2) = {pack.optimum} lifts to a {len(stacked)}-rook "
          f"packing of H(3,3), so b(3,3,2) >= {len(stacked)}")

    cover = diagonal_covering(4, 2)
    grown = extend_covering(extend_covering(cover))
    assert verify_covering(grown).valid
    print(f"extend: the {len(cover)}-rook diagonal covering of H(4,2) grows to a "
          f"{len(grown)}-rook covering of H({grown.params.n},2)")

    two = c_k2_construction(7, 3)
    big = blowup_two_packing(two, 5)
    assert verify_two_packing(big, "closed").valid
    print(f"two-packing blowup: {len(two)} rooks in H(7,3) -> {len(big)} rooks "
          f"in H({big.params.n},3), so c({big.params.n},3,2) >= {len(big)}")


if __name__ == "__main__":
    main()
