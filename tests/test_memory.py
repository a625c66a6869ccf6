"""Heap-peak guard: no stage holds more than ``P`` plus one table-sized array.

``tracemalloc`` sees the arrays numpy allocates, but not the buffer
``numpy.linalg`` copies its input into for LAPACK, so the bound covers numpy
arrays only.  The table is wide enough that a QR block (2048 lines of the
200-line short side) is well under one table size.

``load_table`` holds the text it parses as well as the table.  An integer
table is parsed as int64 one block of rows at a time, each block converted
into its rows of the one float64 table, so the bound on it is the text plus
``BOUND`` table sizes.

Criss-cross ascent advances all its starts together, so the iterative TCA
step also holds a few start-by-column arrays, ``(restarts + 10) x J`` each:
not table-sized, but on a 200-row table each is 0.15 of one.  The TCA bound
allows five of them on top.

Iterative TCA keeps one start Gram matrix, ``min(I, J)``-square, per
decomposition and deflates it in place by a rank-two update a row block at a
time: the update makes no temporary the size of the Gram matrix.

The total dispersion and the raw distances of a distortion report are
summed over blocks, and a zero-axis decomposition forms no residual, so none
of them makes a table-sized array.

The exhaustive TCA step's screen is bounded by what it must hold rather than
by table sizes.  It scores in int16 fixed point, on multiples of a
power-of-two step that its sign tables carry, with exact integer sums, and
holds no scaled copy of the residual and no score per sign class.  It holds
its int16 low-half table, sorted in place, of at most ``_BLOCK_ELEMENTS``
elements; its int16 working set, one chunk of at most ``_CHUNK_POINTS``
points by one block of classes, within a quarter of ``_BLOCK_ELEMENTS``,
with one block's int16 and int32 sums; ``P``, the int16 high half of a
claim's codes, within another quarter, and the float64 ``P`` it is rounded
from, within a quarter of ``_BLOCK_ELEMENTS`` elements (8 bytes each); and
the survivors, the code (8 bytes) and int32 score of each class at or above
the best score so far less the window.  So ``4 * _BLOCK_ELEMENTS`` bytes
plus twice the low-half table cover the screen where few classes come near
the best; the bounds below that also allow 4 bytes per class leave room
for survivors, 12 bytes each, on up to a third of the classes.  A block is
sized from the chunk, not from the table's rows, so a tall table's block is
as wide as a short one's.  The classes its window of ``n h`` each way keeps
go to the exact pass, which holds 16 bytes per candidate (code and float64
score) and one chunk of float64 scores and signs within
``4 * _BLOCK_ELEMENTS`` bytes; the screen's arrays are freed before it.
Threads that call the step at once share none of these arrays, and
tracemalloc sees all of their allocations.
"""

import gc
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import catax.tca
from catax import (
    COLS,
    ROWS,
    build_model,
    ca_decompose,
    load_table,
    numerical_rank,
    tca_decompose,
    tca_total_dispersion,
    tsvd_step_exhaustive,
)
from catax.contingency import _row_blocks
from catax.distortion import distortion_report
from conftest import table_from_counts

# Above the one table-sized array a stage may make, room for its block-sized
# temporaries (a QR block here is 0.2 table sizes).
BOUND = 1.5
# A stage that makes no table-sized array: it sums over row blocks (one block
# here is 0.05 table sizes), or extracts zero axes.
SUMMED = 0.1
RESTARTS = 20


def heap_peak(call):
    """Peak traced heap above what was held when ``call`` started, and its result."""
    gc.collect()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    result = call()
    return tracemalloc.get_traced_memory()[1] - before, result


def test_stage_heap_peaks():
    counts = np.random.default_rng(12).poisson(0.3, size=(200, 12000)).astype(float)
    counts[:, 0] += 1  # no empty row
    counts[0] += 1  # no empty column
    table = table_from_counts(counts)
    size = counts.nbytes
    batch = (RESTARTS + 10) * counts.shape[1] * counts.itemsize
    tracemalloc.start()
    try:
        peaks = {}
        peaks["build_model"], model = heap_peak(lambda: build_model(table))
        del table, counts
        peaks["numerical_rank"], _ = heap_peak(lambda: numerical_rank(model))
        peaks["ca_decompose"], ca = heap_peak(lambda: ca_decompose(model, k=2))
        peaks["tca_decompose"], tca = heap_peak(
            lambda: tca_decompose(model, k=2, strategy="iterative", restarts=RESTARTS)
        )
        peaks["tca_total_dispersion"], _ = heap_peak(lambda: tca_total_dispersion(model))
        for dec in (ca, tca):
            for axis in (ROWS, COLS):
                name = f"distortion_report[{dec.method}-{axis}]"
                peaks[name], _ = heap_peak(lambda: distortion_report(model, dec, axis, [1, 2]))
    finally:
        tracemalloc.stop()
    summed = ("tca_total_dispersion", "distortion_report")
    bounds = {name: (SUMMED if name.startswith(summed) else BOUND) * size for name in peaks}
    bounds["tca_decompose"] += 5 * batch
    over = {name: (peak / size, bounds[name] / size) for name, peak in peaks.items()
            if peak > bounds[name]}
    assert not over, f"(heap peak, bound) in table sizes: {over}"


def test_load_table_heap_peak(tmp_path):
    # An integer table is parsed as int64 a block of rows at a time: the
    # text, the float64 table and one block.
    counts = np.random.default_rng(12).poisson(0.3, size=(200, 12000))
    counts[:, 0] += 1  # no empty row
    counts[0] += 1  # no empty column
    lines = ["label," + ",".join(f"c{j}" for j in range(counts.shape[1]))]
    lines += [f"r{i}," + ",".join(map(str, row)) for i, row in enumerate(counts)]
    path = tmp_path / "table.csv"
    path.write_text("\n".join(lines) + "\n")
    del lines
    text = path.stat().st_size  # ASCII, so one byte per character held
    size = counts.size * np.dtype(float).itemsize
    tracemalloc.start()
    try:
        peak, table = heap_peak(lambda: load_table(path))
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(table.counts, counts)
    assert peak <= text + BOUND * size, f"heap peak {(peak - text) / size:.2f} table sizes"


def test_zero_axes_form_no_residual():
    # an independence table: numerical rank 0, so k=0 is all there is to extract
    rng = np.random.default_rng(13)
    counts = np.outer(rng.integers(1, 10, 200), rng.integers(1, 10, 1000)).astype(float)
    model = build_model(table_from_counts(counts))
    assert numerical_rank(model) == 0  # the model's factorization, made untraced
    tracemalloc.start()
    try:
        peaks = {
            "ca_decompose": heap_peak(lambda: ca_decompose(model, k=0))[0],
            "tca_decompose": heap_peak(lambda: tca_decompose(model, k=0))[0],
        }
    finally:
        tracemalloc.stop()
    over = {name: peak / counts.nbytes for name, peak in peaks.items()
            if peak > SUMMED * counts.nbytes}
    assert not over, f"heap peak in table sizes: {over}"


@pytest.mark.parametrize("workers", [1, 2])
def test_exhaustive_screen_heap_peak(workers):
    # 400 rows: the low-half table is at its widest (2^12 columns).  The
    # screen holds its arrays on the calling thread, so ``workers`` threads
    # screening at once hold no more than that many screens' bounds.
    counts = np.random.default_rng(14).poisson(5.0, size=(400, 20)).astype(float)
    D = build_model(table_from_counts(counts)).D
    npoints, m = D.shape
    scores = 4 << (m - 1)
    buffers = 4 * catax.tca._BLOCK_ELEMENTS
    low_table = 4 * npoints << catax.tca._LOW_BITS

    def at_once():
        with ThreadPoolExecutor(workers) as pool:
            for future in [pool.submit(tsvd_step_exhaustive, D) for _ in range(workers)]:
                future.result()

    tracemalloc.start()
    try:
        peak, _ = heap_peak(at_once)
    finally:
        tracemalloc.stop()
    assert peak <= workers * (scores + buffers + low_table), f"heap peak {peak} bytes"


@pytest.mark.parametrize(
    "shape",
    [(2000, 16), (20000, 16), (100000, 12), (12, 100000)],
    ids=["2000x16", "20000x16", "100000x12", "12x100000"],
)
def test_exhaustive_tall_screen_heap_peak(shape):
    # A block of classes is sized from one chunk of points, not from the
    # table's rows, so on a tall table it stays as wide as on a short one:
    # P, whose columns are the high codes of a claim, must keep within the
    # buffers' bound by its own cap, as must the chunk's buffer.  The
    # low-half table has at most _BLOCK_ELEMENTS elements (2^6 columns at
    # 20000 rows), so the bound allows no more than that for it.  At 100000
    # points the float64 P from which the screen rounds its int16 P is as
    # large as the buffers' bound allows, and no float64 copy of the residual
    # may sit beside it; the wide table is enumerated on its transpose.
    counts = np.random.default_rng(16).poisson(5.0, size=shape).astype(float)
    D = build_model(table_from_counts(counts)).D
    npoints, m = max(D.shape), min(D.shape)  # the enumerated side is m
    scores = 4 << (m - 1)
    buffers = 4 * catax.tca._BLOCK_ELEMENTS
    low_table = min(4 * npoints << catax.tca._LOW_BITS, 4 * catax.tca._BLOCK_ELEMENTS)
    tracemalloc.start()
    try:
        peak, _ = heap_peak(lambda: tsvd_step_exhaustive(D))
    finally:
        tracemalloc.stop()
    assert peak <= scores + buffers + low_table, f"heap peak {peak} bytes"


def test_enumeration_heap_peak_past_the_limit():
    # At m = 24, past the limit that tsvd_step_exhaustive enforces, the
    # screen still holds only its block-sized working set, its low-half
    # table and the survivors of its window: nothing with one slot per sign
    # class, which at 2^23 classes would take 32 MiB as int32 scores alone.
    counts = np.random.default_rng(17).poisson(5.0, size=(30, 24)).astype(float)
    M = build_model(table_from_counts(counts)).D
    npoints, m = M.shape
    buffers = 4 * catax.tca._BLOCK_ELEMENTS
    low_table = 4 * npoints << catax.tca._LOW_BITS
    tracemalloc.start()
    try:
        peak, _ = heap_peak(lambda: catax.tca._enumerate_max(M))
    finally:
        tracemalloc.stop()
    assert peak <= buffers + low_table, f"heap peak {peak} bytes"


def test_exhaustive_exact_pass_heap_peak():
    # Three heavy columns and 17 light ones along one row vector: the integer
    # screen ties all 2^17 settings of the light signs, so the exact pass
    # scores 2^17 candidates, 2 MB of codes and scores, no more than the
    # screen's 2 MB of scores.
    rng = np.random.default_rng(0)
    M = np.empty((50, 20))
    M[:, :3] = rng.standard_normal((50, 3))
    M[:, 3:] = 1e-7 * np.outer(rng.standard_normal(50), rng.uniform(0.5, 1.5, 17))
    npoints, m = M.shape
    scores = 4 << (m - 1)
    buffers = 4 * catax.tca._BLOCK_ELEMENTS
    low_table = 4 * npoints << catax.tca._LOW_BITS
    tracemalloc.start()
    try:
        peak, _ = heap_peak(lambda: tsvd_step_exhaustive(M))
    finally:
        tracemalloc.stop()
    assert peak <= scores + buffers + low_table, f"heap peak {peak} bytes"


def test_gram_update_heap_peak():
    # The Gram matrix is 1500 x 1500 (18 MB), a row block of it 1 MB: the
    # update's temporaries stay within G plus one block, where a whole-matrix
    # np.outer(a, h) + np.outer(h, a) would make three of G's size.
    rng = np.random.default_rng(15)
    R = rng.standard_normal((1500, 1600))
    G = catax.tca._gram(R)
    u, v = np.sign(rng.standard_normal(1600)), np.sign(rng.standard_normal(1500))
    a, b = R @ u, v @ R
    delta = float(np.abs(a).sum())
    block = next(_row_blocks(*G.shape))
    block_bytes = G[block].nbytes
    tracemalloc.start()
    try:
        peak, _ = heap_peak(lambda: catax.tca._deflate_gram(G, R, a, b, delta))
    finally:
        tracemalloc.stop()
    assert peak <= G.nbytes + block_bytes, f"heap peak {peak / G.nbytes:.2f} Gram sizes"
