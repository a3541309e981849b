import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import identical_bits, independent_bits, random_distribution
from skpk.errors import UsageError
from skpk.protocol import derive_rates
from skpk.region import (TOL, classify_case, halfplanes, label_vertices,
                         rate_region, region_constants)
from skpk.sources import JointDistribution, info_profile, noisy_copy_triple, xor_triple


def test_xor_region_exact():
    region = rate_region(xor_triple())
    c = region.constants
    assert c.r_a == pytest.approx(1.0, abs=1e-12)
    assert c.r_b == pytest.approx(1.0, abs=1e-12)
    assert c.r_c == pytest.approx(0.5, abs=1e-12)
    assert c.pk == pytest.approx(1.0, abs=1e-12)
    assert region.case_label == "Case2"
    got = sorted((round(v[0], 9), round(v[1], 9)) for v in region.vertices)
    assert got == [(0.0, 0.0), (0.0, 1.0), (0.5, 0.0)]


@pytest.mark.parametrize("dist", [np.ones((2, 2, 2)) / 8, None, {"pmf": [1.0]}],
                         ids=["array", "None", "dict"])
def test_rate_region_refuses_what_is_not_a_joint_distribution(dist):
    with pytest.raises(UsageError, match="dist must be a JointDistribution"):
        rate_region(dist)


def test_degenerate_regions():
    # independent bits: everything collapses to the origin
    region = rate_region(independent_bits())
    assert all(abs(v[0]) < 1e-9 and abs(v[1]) < 1e-9 for v in region.vertices)
    # identical bits: R_A = R_B = R_C, ties resolve to the lowest case
    region = rate_region(identical_bits())
    assert region.case_label == "Case1"
    assert region.constants.r_b == pytest.approx(1.0, abs=1e-12)


def test_vertices_satisfy_halfplanes(rng):
    for _ in range(60):
        shape = tuple(rng.integers(1, 5, size=3))
        d = random_distribution(rng, shape, zero_frac=0.25)
        region = rate_region(d)
        planes = halfplanes(region.constants)
        for r_s, r_p in region.vertices:
            for a, b, c in planes:
                assert a * r_s + b * r_p <= c + 1e-9


def _pmf_cells(least=1):
    """A pmf shape of least to 3 symbols per axis and integer cell weights,
    zeros included, not all zero.
    """
    return st.tuples(*[st.integers(least, 3)] * 3).flatmap(
        lambda shape: st.tuples(st.just(shape), st.lists(
            st.integers(0, 9), min_size=math.prod(shape), max_size=math.prod(shape))
            .filter(any)))


@given(cells=_pmf_cells())
def test_every_vertex_satisfies_every_halfplane(cells):
    shape, weights = cells
    pmf = np.array(weights, dtype=np.float64).reshape(shape)
    region = rate_region(JointDistribution(shape, pmf / pmf.sum()))
    assert region.vertices
    for r_s, r_p in region.vertices:
        for a, b, c in halfplanes(region.constants):
            assert a * r_s + b * r_p <= c + TOL


_SCHEME_OF_VERTEX = {"E": "PointE", "T": "PointT", "P": "PointP", "Q": "PointQ"}


# Q is a vertex of about one drawn pmf in ten, so this test draws more
@settings(max_examples=300)
@given(cells=_pmf_cells(least=2))
def test_schemes_reach_their_named_vertices(cells):
    """As epsilon and delta go to 0, each scheme's derived key rates reach
    its named point whenever that point is a vertex of the region.
    """
    shape, weights = cells
    pmf = np.array(weights, dtype=np.float64).reshape(shape)
    dist = JointDistribution(shape, pmf / pmf.sum())
    for label, r_s, r_p in label_vertices(rate_region(dist)):
        if label in _SCHEME_OF_VERTEX:
            rates = derive_rates(_SCHEME_OF_VERTEX[label], info_profile(dist), 1e-9, 0.0)
            assert abs(rates.r_s - r_s) <= 1e-6, label
            assert abs(rates.r_p - r_p) <= 1e-6, label


def test_vertices_match_named_points(rng):
    for _ in range(60):
        shape = tuple(rng.integers(1, 5, size=3))
        d = random_distribution(rng, shape, zero_frac=0.25)
        region = rate_region(d)
        for r_s, r_p in region.vertices:
            best = min(abs(r_s - p[0]) + abs(r_p - p[1])
                       for p in region.named_points.values())
            assert best < 1e-8


def test_case_classification():
    prof = info_profile(noisy_copy_triple(0.1, 0.3))
    c = region_constants(prof)
    label = classify_case(c)
    assert label in ("Case1", "Case2", "Case3")
    # ordering property behind the labels
    if label == "Case1":
        assert c.r_b <= min(c.r_a, c.r_c) + 1e-10
    elif label == "Case2":
        assert c.r_c <= c.r_a + 1e-10


def test_contains_and_gatekeeper():
    d = xor_triple()
    region = rate_region(d)
    assert region.contains(0.0, 0.0)
    assert region.contains(0.0, 1.0)
    assert not region.contains(0.6, 0.6)
    assert region.contains(0.25, 0.25)
    assert not region.contains(2.0, 2.0)


def test_vertex_labels():
    region = rate_region(xor_triple())
    labels = {name for name, _, _ in label_vertices(region)}
    assert "O" in labels
    assert "E" in labels
    assert "C" in labels


def test_polygon_is_counterclockwise(rng):
    for _ in range(20):
        d = random_distribution(rng, (2, 2, 2), zero_frac=0.2)
        verts = rate_region(d).vertices
        if len(verts) < 3:
            continue
        area2 = 0.0
        for i in range(len(verts)):
            x0, y0 = verts[i]
            x1, y1 = verts[(i + 1) % len(verts)]
            area2 += x0 * y1 - x1 * y0
        assert area2 >= -1e-12
