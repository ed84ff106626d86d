import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcd.paths import (
    RelationalPath,
    enumerate_paths,
    is_valid,
    parse_path,
    path,
    reverse,
)
from relcd.schema import random_schema
from tests.reference import extend


def test_costar_path_valid(movie_schema):
    assert is_valid(path("ACTOR", "STARS-IN", "MOVIE", "STARS-IN", "ACTOR"), movie_schema)


def test_singleton_valid(movie_schema):
    assert is_valid(path("ACTOR"), movie_schema)


def test_round_trip_depends_on_cardinality(employer_schema):
    # company -> employees fans out (MANY), so employees' round trip works
    assert is_valid(
        path("EMPLOYEE", "WORKS-FOR", "COMPANY", "WORKS-FOR", "EMPLOYEE"),
        employer_schema,
    )
    # an employee holds at most one job, so companies cannot return
    assert not is_valid(
        path("COMPANY", "WORKS-FOR", "EMPLOYEE", "WORKS-FOR", "COMPANY"),
        employer_schema,
    )


def test_immediate_return_invalid(movie_schema):
    assert not is_valid(path("ACTOR", "STARS-IN", "ACTOR"), movie_schema)


def test_broken_alternation_invalid(movie_schema):
    assert not is_valid(path("ACTOR", "MOVIE"), movie_schema)


def test_unknown_item_raises(movie_schema):
    with pytest.raises(ValueError):
        is_valid(path("ACTOR", "DIRECTS", "MOVIE"), movie_schema)


def test_empty_path_rejected():
    with pytest.raises(ValueError):
        RelationalPath(())


def test_reverse_examples(movie_schema):
    assert reverse(path("MOVIE", "STARS-IN", "ACTOR")) == path(
        "ACTOR", "STARS-IN", "MOVIE"
    )
    assert reverse(path("ACTOR")) == path("ACTOR")
    costar = path("ACTOR", "STARS-IN", "MOVIE", "STARS-IN", "ACTOR")
    assert reverse(reverse(costar)) == costar


@given(seed=st.integers(0, 5000), k=st.integers(1, 4), hops=st.integers(0, 6))
@settings(max_examples=40, deadline=None)
def test_reverse_involution_and_validity(seed, k, hops):
    schema = random_schema(seed, k)
    perspective = schema.entities[0].name
    for p in enumerate_paths(schema, perspective, hops):
        assert reverse(reverse(p)) == p
        assert is_valid(reverse(p), schema)


def test_enumerate_paths_hop_zero(movie_schema):
    assert enumerate_paths(movie_schema, "ACTOR", 0) == [path("ACTOR")]


def test_enumerate_paths_actor_four_hops(movie_schema):
    got = enumerate_paths(movie_schema, "ACTOR", 4)
    want = [
        path("ACTOR"),
        path("ACTOR", "STARS-IN"),
        path("ACTOR", "STARS-IN", "MOVIE"),
        path("ACTOR", "STARS-IN", "MOVIE", "STARS-IN"),
        path("ACTOR", "STARS-IN", "MOVIE", "STARS-IN", "ACTOR"),
    ]
    assert got == want


def test_enumerate_paths_movie_two_hops(movie_schema):
    got = enumerate_paths(movie_schema, "MOVIE", 2)
    assert got == [
        path("MOVIE"),
        path("MOVIE", "STARS-IN"),
        path("MOVIE", "STARS-IN", "ACTOR"),
    ]


def test_enumerate_paths_unknown_perspective(movie_schema):
    with pytest.raises(ValueError):
        enumerate_paths(movie_schema, "STUDIO", 2)


def test_enumerate_paths_rejects_a_negative_threshold(movie_schema):
    with pytest.raises(ValueError, match="hop_threshold must be >= 0"):
        enumerate_paths(movie_schema, "MOVIE", -1)


@given(seed=st.integers(0, 5000), k=st.integers(1, 4), hops=st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_enumerate_paths_monotone_in_hops(seed, k, hops):
    schema = random_schema(seed, k)
    perspective = schema.entities[-1].name
    smaller = enumerate_paths(schema, perspective, hops)
    larger = enumerate_paths(schema, perspective, hops + 1)
    assert set(smaller) <= set(larger)
    for p in larger:
        assert is_valid(p, schema)
        assert len(p.items) - 1 <= hops + 1


def test_extend_costar_example(movie_schema):
    got = extend(
        path("ACTOR", "STARS-IN", "MOVIE"),
        path("MOVIE", "STARS-IN", "ACTOR"),
        movie_schema,
        max_length=5,
    )
    assert got == [
        path("ACTOR"),
        path("ACTOR", "STARS-IN", "MOVIE", "STARS-IN", "ACTOR"),
    ]


def test_extend_singleton_prefix(movie_schema):
    got = extend(path("MOVIE"), path("MOVIE", "STARS-IN", "ACTOR"), movie_schema, 5)
    assert got == [path("MOVIE", "STARS-IN", "ACTOR")]


def test_extend_mirror_example(movie_schema):
    got = extend(
        path("MOVIE", "STARS-IN", "ACTOR"),
        path("ACTOR", "STARS-IN", "MOVIE"),
        movie_schema,
        max_length=5,
    )
    assert got == [
        path("MOVIE"),
        path("MOVIE", "STARS-IN", "ACTOR", "STARS-IN", "MOVIE"),
    ]


def test_extend_join_mismatch(movie_schema):
    with pytest.raises(ValueError):
        extend(path("ACTOR"), path("MOVIE", "STARS-IN", "ACTOR"), movie_schema, 5)


def test_extend_respects_max_length(movie_schema):
    got = extend(
        path("ACTOR", "STARS-IN", "MOVIE"),
        path("MOVIE", "STARS-IN", "ACTOR"),
        movie_schema,
        max_length=3,
    )
    assert got == [path("ACTOR")]


def _alternating_sequences(schema, perspective, hops):
    # every item sequence from the perspective that alternates entity and
    # relationship classes, with at most ``hops`` hops, valid or not
    entities = [e.name for e in schema.entities]
    relationships = [r.name for r in schema.relationships]
    frontier = [(perspective,)]
    out = list(frontier)
    for _ in range(hops):
        frontier = [
            items + (name,)
            for items in frontier
            for name in (relationships if schema.is_entity(items[-1]) else entities)
        ]
        out.extend(frontier)
    return out


@given(seed=st.integers(0, 5000), k=st.integers(1, 4), hops=st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_enumerate_paths_is_every_valid_path(seed, k, hops):
    # build_agg relies on this: a valid composition within the bound is
    # always found among the enumerated paths
    schema = random_schema(seed, k)
    for perspective in sorted(schema.item_classes):
        brute = {
            RelationalPath(items)
            for items in _alternating_sequences(schema, perspective, hops)
            if is_valid(RelationalPath(items), schema)
        }
        got = enumerate_paths(schema, perspective, hops)
        assert len(got) == len(set(got))
        assert set(got) == brute


@given(seed=st.integers(0, 5000), k=st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_extend_results_always_valid(seed, k):
    schema = random_schema(seed, k)
    perspective = schema.entities[0].name
    paths = enumerate_paths(schema, perspective, 3)
    for p in paths[:6]:
        for q in enumerate_paths(schema, p.last, 3)[:6]:
            for result in extend(p, q, schema, 9):
                assert is_valid(result, schema)
                assert result.perspective == perspective
                # plain concatenation appears whenever it is valid and short enough
            joined = p.items + q.items[1:]
            if len(joined) <= 9 and is_valid(RelationalPath(joined), schema):
                assert RelationalPath(joined) in extend(p, q, schema, 9)


def test_parse_path_round_trip():
    p = path("ACTOR", "STARS-IN", "MOVIE")
    assert parse_path(str(p)) == p
    assert parse_path("[ACTOR, STARS-IN, MOVIE]") == p


def test_parse_path_rejects_malformed():
    with pytest.raises(ValueError):
        parse_path("ACTOR, MOVIE")
    with pytest.raises(ValueError):
        parse_path("[A,,B]")
