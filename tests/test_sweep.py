import pytest

from conftest import (check_cut, flat_decomposition, flat_move, same_outer_table,
                      shortened_void_or_spherical, system)
from coxsub.braid import MoveFacts, verify_decomposition
from sweep import sweep

# (m, case) of every braid move of every word of the length, for every pi
HISTOGRAMS = {
    ("A3", 5): {(2, 1): 5184, (3, 1): 1872, (3, 2): 180, (3, 3): 180, (3, 4): 360},
    ("B3", 5): {(2, 1): 10368, (3, 1): 2232, (3, 2): 90, (3, 3): 90, (3, 4): 180,
                (4, 1): 488, (4, 2): 16, (4, 3): 16, (4, None): 56},
    ("I2:5", 7): {(5, 1): 24, (5, 2): 24, (5, 3): 24, (5, None): 168},
}


@pytest.mark.parametrize("name, length", list(HISTOGRAMS))
def test_every_move_of_the_short_words(name, length):
    # every move passes report_ok; no case-4 move is chain-checked, and
    # when both sides are spheres the shortened windows are void or spheres
    # (classify's lemma); a move's mirror swaps cases 2 and 3, so they are
    # equally common for each m; the checks of each report with m >= 3,
    # read from classify's table or not, are those of a fresh evaluation
    # and of the face-by-face move algebra; every outer table, whose labels
    # key that table, is the two-pass oracle's; and every move's cut gives
    # what the builds word by word and the facet loop give (``check_cut``)
    def each(ctx, rep, memo):
        f = check_cut(ctx, memo)
        assert not (rep.case == 4 and rep.decomposition.chain_checked)
        assert shortened_void_or_spherical(f)
        assert same_outer_table(f)
        if rep.m >= 3:
            fresh = verify_decomposition(f)
            assert fresh.ok and fresh.checks == rep.decomposition.checks
            assert fresh.chain_checked == rep.decomposition.chain_checked
            assert flat_decomposition(f, *flat_move(f)) == (rep.decomposition.checks, {})

    hist, failed = sweep(system(name), length, each)
    assert not failed
    assert hist == HISTOGRAMS[name, length]
    assert all(hist[m, 2] == hist[m, 3] for m, _ in hist)
