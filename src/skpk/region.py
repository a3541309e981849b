"""Secret-key / private-key rate region.

The achievable pairs (R_S, R_P) form a convex polygon cut out by six
halfplanes built from four distribution constants. This module computes the
constants, classifies the region into one of three shapes, enumerates the
polygon's corner points generically, and names the corners that carry
operational meaning.
"""

from dataclasses import dataclass

import numpy as np

from .sources import InfoProfile, JointDistribution, info_profile

# slack for membership, vertex feasibility and matching named points
TOL = 1e-9


@dataclass(frozen=True)
class RegionConstants:
    """The four constants that cut out the region, in bits per symbol.

    r_a  total secret-key ceiling        I(Z; XY)
    r_b  key-sum ceiling                 min{ I(X; YZ), I(Y; XZ) }
    r_c  weighted-sum ceiling            (H(X) + H(Y) + H(Z) - H(XYZ)) / 2
    pk   private-key ceiling             I(X; Y | Z)
    """

    r_a: float
    r_b: float
    r_c: float
    pk: float


def region_constants(profile: InfoProfile) -> RegionConstants:
    r_a = profile.i("Z", "XY")
    r_b = min(profile.i("X", "YZ"), profile.i("Y", "XZ"))
    r_c = 0.5 * (profile.h("X") + profile.h("Y") + profile.h("Z") - profile.h("XYZ"))
    return RegionConstants(r_a=r_a, r_b=r_b, r_c=max(0.0, r_c), pk=profile.i("X", "Y", "Z"))


def classify_case(constants: RegionConstants) -> str:
    """Pick the region shape. Ties resolve to the lower-numbered case."""
    tol = 1e-10
    if constants.r_b <= min(constants.r_a, constants.r_c) + tol:
        return "Case1"
    if constants.r_c <= constants.r_a + tol:
        return "Case2"
    return "Case3"


def halfplanes(constants: RegionConstants):
    """Constraints a*R_S + b*R_P <= c as (a, b, c) rows.

    Order: R_S >= 0, R_P >= 0, R_S <= r_a, R_S + R_P <= r_b,
    2 R_S + R_P <= 2 r_c, R_P <= pk.
    """
    return [
        (-1.0, 0.0, 0.0),
        (0.0, -1.0, 0.0),
        (1.0, 0.0, constants.r_a),
        (1.0, 1.0, constants.r_b),
        (2.0, 1.0, 2.0 * constants.r_c),
        (0.0, 1.0, constants.pk),
    ]


@dataclass(frozen=True)
class RateRegion:
    constants: RegionConstants
    case_label: str
    vertices: tuple          # ((r_s, r_p), ...) counterclockwise from (0, 0)
    named_points: dict       # label -> (r_s, r_p)

    def contains(self, r_s: float, r_p: float) -> bool:
        for a, b, c in halfplanes(self.constants):
            if a * r_s + b * r_p > c + TOL:
                return False
        return True


def _polygon_vertices(planes):
    """All feasible pairwise intersections of the halfplane boundaries,
    deduplicated and ordered counterclockwise starting at the corner closest
    to the origin.
    """
    pts = []
    k = len(planes)
    for i in range(k):
        a1, b1, c1 = planes[i]
        for j in range(i + 1, k):
            a2, b2, c2 = planes[j]
            det = a1 * b2 - a2 * b1
            if abs(det) < 1e-12:
                continue
            s = (c1 * b2 - c2 * b1) / det
            p = (a1 * c2 - a2 * c1) / det
            if all(a * s + b * p <= c + TOL for a, b, c in planes):
                pts.append((s, p))
    uniq = []
    for s, p in pts:
        if not any(abs(s - us) <= TOL and abs(p - up) <= TOL for us, up in uniq):
            uniq.append((s, p))
    if not uniq:
        return ()
    if len(uniq) > 2:
        cx = sum(s for s, _ in uniq) / len(uniq)
        cy = sum(p for _, p in uniq) / len(uniq)
        uniq.sort(key=lambda v: (np.arctan2(v[1] - cy, v[0] - cx), (v[0] - cx) ** 2 + (v[1] - cy) ** 2))
    start = min(range(len(uniq)), key=lambda i: uniq[i][0] ** 2 + uniq[i][1] ** 2)
    return tuple(uniq[start:] + uniq[:start])


def _named_points(constants: RegionConstants, profile: InfoProfile, case_label: str) -> dict:
    ra, rb, rc, pk = constants.r_a, constants.r_b, constants.r_c, constants.pk
    m = max(profile.i("X", "Z"), profile.i("Y", "Z"))
    named = {
        "O": (0.0, 0.0),
        "E": (0.0, pk),
        "T": (rb - pk, pk),
    }
    if case_label == "Case1":
        named["B"] = (rb, 0.0)
    elif case_label == "Case2":
        named["P"] = (m, rb - m)
        named["C"] = (rc, 0.0)
    else:
        named["P"] = (m, rb - m)
        named["Q"] = (ra, profile.i("X", "Y") - ra)
        named["A"] = (ra, 0.0)
    return named


def rate_region(dist: JointDistribution) -> RateRegion:
    """Full region description for a distribution.

    Corner points come from generic halfplane intersection, not from the named
    formulas, so the two can be cross-checked against each other.
    """
    profile = info_profile(dist)
    constants = region_constants(profile)
    case_label = classify_case(constants)
    vertices = _polygon_vertices(halfplanes(constants))
    named = _named_points(constants, profile, case_label)
    return RateRegion(constants=constants, case_label=case_label,
                      vertices=vertices, named_points=named)


def label_vertices(region: RateRegion):
    """Attach the matching name to each polygon corner.

    Returns [(label, r_s, r_p), ...] in the polygon's counterclockwise order.
    Corners with no named counterpart get V0, V1, ... in order.
    """
    out = []
    unnamed = 0
    for s, p in region.vertices:
        label = None
        for name, (ns, np_) in region.named_points.items():
            if abs(s - ns) <= TOL and abs(p - np_) <= TOL:
                label = name
                break
        if label is None:
            label = f"V{unnamed}"
            unnamed += 1
        out.append((label, s, p))
    return out

