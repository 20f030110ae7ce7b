"""Unit tests for the paper-claims validator."""

import pytest

from repro.analysis.aggregate import ResultSet
from repro.analysis.validate import render_claims, validate_claims
from repro.units import gbps, mbps
from tests.analysis.test_aggregate import make_result


def _paper_consistent_results():
    """A synthetic result set crafted to satisfy every claim."""
    out = []
    seed = 0
    bandwidths = (mbps(100), gbps(10))
    for bw in bandwidths:
        hi = bw == gbps(10)
        for buf in (0.5, 16.0):
            seed += 10
            # BBRv1 vs CUBIC: wins small FIFO buffers, loses large ones;
            # dominates under RED; fair under FQ.
            s1, s2 = (0.9 * bw, 0.1 * bw) if buf == 0.5 else (0.2 * bw, 0.8 * bw)
            out.append(make_result(pair=("bbrv1", "cubic"), aqm="fifo", buf=buf, bw=bw,
                                   seed=seed + 1, s1=s1, s2=s2, jain=0.7, util=0.99,
                                   retx=5000 if hi else 500))
            out.append(make_result(pair=("bbrv1", "cubic"), aqm="red", buf=buf, bw=bw,
                                   seed=seed + 2, s1=0.9 * bw, s2=0.05 * bw, jain=0.53,
                                   util=0.9, retx=40000 if hi else 4000))
            out.append(make_result(pair=("bbrv1", "cubic"), aqm="fq_codel", buf=buf, bw=bw,
                                   seed=seed + 3, s1=0.5 * bw, s2=0.5 * bw, jain=0.99,
                                   util=0.95, retx=8000 if hi else 800))
            for cca, retx in (("bbrv1", 90000), ("bbrv2", 300), ("cubic", 100),
                              ("reno", 150), ("htcp", 200)):
                for aqm, util in (("fifo", 0.99), ("red", 0.7 if hi else 0.95),
                                  ("fq_codel", 0.96)):
                    seed += 1
                    out.append(make_result(pair=(cca, cca), aqm=aqm, buf=buf, bw=bw,
                                           seed=seed, jain=0.99, util=util,
                                           retx=retx * (10 if hi else 1),
                                           s1=util * bw / 2, s2=util * bw / 2))
    return ResultSet(out)


def test_all_claims_pass_on_consistent_data():
    claims = validate_claims(_paper_consistent_results())
    failed = [c for c in claims if c.passed is False]
    assert not failed, [c.claim_id + ": " + c.detail for c in failed]
    assert sum(1 for c in claims if c.passed) >= 8


def test_violation_detected():
    """Flip the FIFO large-buffer outcome: the equilibrium claim must fail."""
    results = _paper_consistent_results()
    for r in results.results:
        cfg = r.config
        if (tuple(cfg["cca_pair"]) == ("bbrv1", "cubic") and cfg["aqm"] == "fifo"
                and cfg["buffer_bdp"] == 16.0):
            r.senders[0].throughput_bps, r.senders[1].throughput_bps = (
                r.senders[1].throughput_bps, r.senders[0].throughput_bps,
            )
    claims = {c.claim_id: c for c in validate_claims(results)}
    assert claims["fifo-equilibrium"].passed is False


def test_insufficient_data_skips():
    rs = ResultSet([make_result(pair=("cubic", "cubic"), aqm="fifo", buf=2.0)])
    claims = validate_claims(rs)
    assert any(c.skipped for c in claims)
    assert not any(c.passed is False for c in claims)


def test_render_claims_text():
    text = render_claims(validate_claims(_paper_consistent_results()))
    assert "PASS" in text
    assert "fifo-equilibrium" in text
    assert "passed" in text


# --- claims ported from the per-figure scripts ----------------------------------


def _verdict(results, claim_id):
    (claim,) = [c for c in validate_claims(ResultSet(results)) if c.claim_id == claim_id]
    return claim


def _red_bbr(jain):
    return [make_result(pair=("bbrv1", "cubic"), aqm="red", buf=buf, bw=bw, jain=jain)
            for buf in (2.0, 16.0) for bw in (mbps(100), gbps(1))]


def _fifo_16bdp_bbr(jains):
    return [make_result(pair=("bbrv1", "cubic"), aqm="fifo", buf=16.0, bw=bw, jain=j)
            for bw, j in zip((mbps(100), gbps(1)), jains)]


def _red_reno(s1, s2, jain):
    return [make_result(pair=("reno", "cubic"), aqm="red", buf=buf, bw=mbps(100),
                        s1=s1, s2=s2, jain=jain)
            for buf in (0.5, 2.0, 16.0)]


def _util(red, fifo):
    return [make_result(pair=pair, aqm=aqm, buf=2.0, util=util)
            for pair in (("cubic", "cubic"), ("bbrv1", "cubic"))
            for aqm, util in (("red", red), ("fifo", fifo))]


def _fq_codel_tiers(fq_1g, fq_25g, fifo_25g):
    return [make_result(pair=(cca, cca), aqm=aqm, buf=2.0, bw=bw, util=util)
            for cca in ("cubic", "bbrv2")
            for aqm, bw, util in (("fq_codel", gbps(1), fq_1g), ("fq_codel", gbps(25), fq_25g),
                                  ("fifo", gbps(25), fifo_25g))]


def _bbr_fifo_retx(small, large):
    return [make_result(pair=(cca, cca), aqm="fifo", buf=buf, bw=mbps(100), retx=retx)
            for cca in ("bbrv1", "bbrv2") for buf, retx in ((2.0, small), (16.0, large))]


def _intra(aqm, **metric):
    return [make_result(pair=(cca, cca), aqm=aqm, buf=buf, bw=bw, **metric)
            for cca in ("cubic", "reno", "htcp") for buf in (2.0, 16.0)
            for bw in (mbps(100), gbps(1))]


def _red_2bdp_util(at_100m, at_25g):
    return [make_result(pair=(cca, cca), aqm="red", buf=2.0, bw=bw, util=util)
            for cca in ("reno", "cubic", "htcp")
            for bw, util in ((mbps(100), at_100m), (gbps(25), at_25g))]


def _retx_2bdp(at_100m, at_10g):
    return [make_result(pair=(cca, cca), aqm=aqm, buf=2.0, bw=bw, retx=retx)
            for aqm in ("red", "fq_codel") for cca in ("cubic", "reno", "bbrv1")
            for bw, retx in ((mbps(100), at_100m), (gbps(10), at_10g))]


def _red_10g_retx(bbrv1):
    return [make_result(pair=(cca, cca), aqm="red", buf=2.0, bw=gbps(10),
                        retx=bbrv1 if cca == "bbrv1" else 1000)
            for cca in ("bbrv1", "cubic", "reno", "htcp", "bbrv2")]


def _intra_retx(bbrv1):
    return [make_result(pair=(cca, cca), aqm=aqm, buf=2.0, bw=bw,
                        retx={"bbrv1": bbrv1, "cubic": 100}.get(cca, 150))
            for aqm in ("fifo", "red") for bw in (mbps(100), gbps(1))
            for cca in ("bbrv1", "bbrv2", "htcp", "reno", "cubic")]


PORTED_CLAIMS = {
    # claim id: (passing data, failing data, data without the claim's cells)
    "red-bbr-unfair": (_red_bbr(0.53), _red_bbr(0.8), _fifo_16bdp_bbr((0.6, 0.6))),
    "fifo-deep-buffer-unfair": (
        _fifo_16bdp_bbr((0.95, 0.6)), _fifo_16bdp_bbr((0.95, 0.92)), _red_bbr(0.53),
    ),
    "red-reno-balanced": (
        _red_reno(50e6, 45e6, 0.99), _red_reno(85e6, 5e6, 0.99), _red_bbr(0.53),
    ),
    "red-util-below-fifo": (_util(0.8, 0.99), _util(0.99, 0.98), _fifo_16bdp_bbr((0.9, 0.9))),
    "fq-codel-25g-shortfall": (
        _fq_codel_tiers(0.95, 0.9, 0.99), _fq_codel_tiers(0.95, 1.0, 0.9),
        _fq_codel_tiers(0.95, 0.9, 0.99)[:2],
    ),
    "bbr-large-fifo-loss-free": (
        _bbr_fifo_retx(100, 50), _bbr_fifo_retx(100, 200), _fifo_16bdp_bbr((0.9, 0.9)),
    ),
    "fifo-intra-fair-spot": (_intra("fifo", jain=0.9), _intra("fifo", jain=0.8), _red_bbr(0.53)),
    "red-intra-fair-spot": (
        _intra("red", jain=0.95), _intra("red", jain=0.88), _intra("fifo", jain=0.95),
    ),
    "fifo-full-util-spot": (_intra("fifo", util=0.85), _intra("fifo", util=0.78), _red_bbr(0.53)),
    "red-2bdp-degradation": (
        _red_2bdp_util(0.95, 0.8), _red_2bdp_util(0.95, 0.98), _red_2bdp_util(0.95, 0.8)[::2],
    ),
    "retx-grow-2bdp": (_retx_2bdp(10, 100), _retx_2bdp(100, 10), _retx_2bdp(10, 100)[::2]),
    "red-bbrv1-retx-top": (_red_10g_retx(5000), _red_10g_retx(500), _retx_2bdp(10, 100)),
    "bbrv1-rr-highest": (_intra_retx(5000), _intra_retx(120), _red_bbr(0.53)),
}


@pytest.mark.parametrize("claim_id", sorted(PORTED_CLAIMS))
def test_ported_claim_passes_fails_and_skips(claim_id):
    passing, failing, without = PORTED_CLAIMS[claim_id]
    assert _verdict(passing, claim_id).passed is True, _verdict(passing, claim_id).detail
    assert _verdict(failing, claim_id).passed is False, _verdict(failing, claim_id).detail
    skipped = _verdict(without, claim_id)
    assert skipped.skipped and skipped.detail == "insufficient data"


def test_red_reno_balanced_fails_on_a_spotlight_jain_below_0_9():
    """The per-cell split holds, but mean J at the spotlight buffers does not."""
    assert _verdict(_red_reno(50e6, 45e6, 0.85), "red-reno-balanced").passed is False


def test_red_bbr_unfair_checks_each_spotlight_buffer():
    """A fair 16 BDP slice fails the claim though the overall mean holds."""
    cells = _red_bbr(0.53)
    for r in cells:
        if r.config["buffer_bdp"] == 16.0:
            r.jain_index = 0.8
    claim = _verdict(cells, "red-bbr-unfair")
    assert claim.passed is False
    assert "16bdp=0.800" in claim.detail


def test_spotlight_claims_ignore_other_buffers():
    """A poor 0.5 BDP cell does not fail a claim about 2 and 16 BDP."""
    cells = _intra("fifo", jain=0.9, util=0.85) + [
        make_result(pair=("cubic", "cubic"), aqm="fifo", buf=0.5, jain=0.1, util=0.1)
    ]
    assert _verdict(cells, "fifo-intra-fair-spot").passed is True
    assert _verdict(cells, "fifo-full-util-spot").passed is True


def test_red_intra_fair_spot_leaves_out_bbr():
    """BBRv1's RTO lottery under RED is not the claim's subject."""
    cells = _intra("red", jain=0.95) + [
        make_result(pair=("bbrv1", "bbrv1"), aqm="red", buf=2.0, jain=0.5)
    ]
    assert _verdict(cells, "red-intra-fair-spot").passed is True


def test_bbrv1_rr_highest_reads_relative_not_raw_retransmissions():
    """Raw counts favour BBRv1 at the busy condition, but per condition
    against CUBIC's baseline HTCP's RR is higher."""
    cells = [make_result(pair=(cca, cca), aqm="fifo", buf=2.0, bw=bw, retx=retx)
             for bw, row in ((mbps(100), {"cubic": 1, "htcp": 50, "bbrv1": 10}),
                             (gbps(1), {"cubic": 10000, "htcp": 100, "bbrv1": 20000}))
             for cca, retx in row.items()]
    claim = _verdict(cells, "bbrv1-rr-highest")
    assert claim.passed is False, claim.detail
    assert "fifo:htcp" in claim.detail
