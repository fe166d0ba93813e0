"""The compiled ingestion kernel for the array-backed adjacency state.

:mod:`repro.core.adjacency` refactors a processor group's hot state onto
flat int64 columns; this module supplies the fused closure+store step that
advances those columns by one encoded record.  The step is part of a small
C source string, compiled once per machine with the system C compiler into
a cached shared object and called through :mod:`ctypes` — no third-party
dependency, available wherever a C compiler is.  Its one reference is the
dict/set :class:`~repro.core.state.ProcessorGroup`, which it matches bit for
bit (the kernel-parity suites assert exact equality).

Each group has one state record (:class:`GroupRecord`): its hash family
and parameters, ``m``, its shape (``group_size``, ``track_local``,
``track_eta``), the capacities of its node columns, edge columns,
half-edge pool and cell pool (``node_cap``, ``edge_cap``, ``pool_cap``,
``cell_cap``) and the addresses of its columns (:data:`RECORD_COLUMNS`),
among them ``meta``, the scalars the calls advance: ``[n_half, n_edges,
epoch, n_cells, n_dead]``.

One record loop advances a group.  For each record it turns the edge's
canonical key, which no seed enters, into the group's slot with C ports of
both hash families — splitmix64 of ``key ^ seed``, and simple tabulation
over the 8×256 rows — equal to
:meth:`~repro.hashing.base.EdgeHashFunction.bucket` bit for bit, and runs
the fused closure+store step.  The step stores the edge unless its slot
is virtual or the group's sampled set ``E(i)`` already holds it, which
the closure walk of the record's own slot shows for free: each group
decides first occurrence from its own stored edges.  Before each record
on a real slot the loop checks the room a store needs — one edge, two
half-edges, and for each endpoint that gains the slot its whole block of
cells plus one — and only when room is short looks the edge up, so a
held edge never stops it; it stops before the first record that does not
fit, returning its index (``n`` when every record ran).  Two entries run
it, both over the group records of one state set (:class:`EdgeEntry`):

* ``rept_ingest_groups`` is the batch path (:func:`run_groups`): one call
  per encoded batch whatever the number of groups, each group running the
  loop from its own resume index and writing back where it stopped.  A
  state set's groups share no state, so the call runs them on threads —
  one per group that has at least :data:`THREAD_FLOOR` records left and
  room to store as many edges, up to the :data:`CPUS` this process may
  use, the calling thread taking the first group — and joins every thread
  before it returns; a thread that cannot be started leaves its groups to
  the others.  Python grows the groups that stopped, on the calling
  thread, and calls again, so every record runs exactly once in every
  group;
* ``rept_ingest_edge`` is the per-edge path (called by
  :meth:`~repro.core.state.GroupStateSet.process_edge`): one call per
  record whatever the number of groups.  It checks every group's room
  first, the cells both endpoints may need included, and, if any is
  short, changes nothing and asks the caller to grow; otherwise it runs
  the loop over the one record in each group, on the calling thread.

A batch stop and a per-edge shortfall take the same growth step
(:meth:`~repro.core.adjacency.GroupArrays.make_room`).

Selection is requested as ``kernel="auto"|"python"|"native"`` on
:class:`~repro.core.config.ReptConfig` and resolved once per state set by
:func:`resolve_kernel` to the label ``"cc"`` (the C kernel) or
``"python"`` (the dict/set reference).  ``REPRO_KERNEL=python`` in the
environment disables the C kernel outright (the CI pure-Python lane); no
other value of the variable has an effect.

The same library carries the encode pass behind
:meth:`~repro.core.interning.NodeInterner._encode_columns`: the probe and
insert of the interner's open-addressing int64→id cache, and one walk over
an all-int batch's interleaved endpoints and their dense ids that skips
self-loops, canonicalises by raw value and writes the ids.  It also
carries the cold-path calls of the group fold
(:meth:`~repro.core.adjacency.NativeProcessorGroup.merge_deltas`), which
folds a whole group's pane delta, snapshot or restored state, and of the
cell scans, all of which read the group's record:

* the bulk edge append (the record step's store and the bulk append
  share one edge insert), which stops where the cells run out like the
  batch entry;
* the cell fold, which adds ``τ_v`` or ``η_v`` entries onto cells — a
  node gains a cell with an empty chain on a slot where it stores no edge
  — and stops where the cells run out;
* the edge lookup, which finds an edge's eid by walking both endpoints'
  neighbour chains on its slot in lockstep — the groups keep no other
  edge index, and the record loop's room check shares it;
* the per-edge counter fold, which adds detached ``τ_(u,v)`` counters onto
  the stored edges with the exact η correction against each prior value
  and returns the counters whose edge is not stored;
* the cell read, one pass over the nodes and their occupied cells that
  writes the ``τ_v``/``η_v`` entries as columns (and zeroes them for a
  pane take), and the compaction, which packs every node's block into
  fresh columns and leaves the dead cells behind.

No compiled function allocates: node columns are ensured by the Python
wrapper before the call, from the largest id a batch references; edge
columns, the half-edge pool and the cell pool grow wherever a call
stopped short or, on the per-edge path, reported which groups lack room.
So no Python runs and no column grows off the calling thread.  The
library is built with ``-pthread`` (:data:`CFLAGS`), and the cached build
is named by a hash of the compiler, the flags and the source.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError

#: Values accepted by ``ReptConfig.kernel`` / ``GroupStateSet(kernel=...)``.
KERNEL_CHOICES = ("auto", "python", "native")

#: Resolved label of the compiled kernel (recorded in estimate metadata).
NATIVE_LABEL = "cc"

#: Slot bitmasks live in one signed int64 per node, so a native group can
#: address at most 63 slots; wider groups fall back to the Python kernel.
MAX_NATIVE_GROUP_SIZE = 63

#: A batch call starts a thread for a group only when the group has at
#: least this many records left and the edge room to store this many more
#: without growing.  A thread costs about 55 µs to start and join (one
#: thread, 2-vCPU container), more than a few hundred records take; and a
#: young group, short of room, stops to grow within fewer records, idles
#: its thread and is resumed by a call that starts threads anew.  Gated on
#: records alone, the windowed-monitoring experiment's monitor (fresh
#: window state sets fed 8192-record chunks) ran 3–9 % slower than inline.
THREAD_FLOOR = 4096

#: The CPUs this process may run on: the most threads a batch call runs on,
#: the calling thread included.
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


# -- the C kernel, compiled once per machine and loaded via ctypes -------------

_C_SOURCE = r"""
#include <pthread.h>
#include <stdint.h>

typedef int64_t i64;
typedef uint8_t u8;

/* One processor group's state record (GroupRecord in Python): its hash,
 * its shape, and the capacities and addresses of its columns (layout in
 * repro/core/adjacency.py).  GroupArrays rewrites the column fields on
 * every growth and compaction; the compiled calls read nothing else. */
typedef struct {
    i64 hash_kind;          /* 0 splitmix, 1 tabulation */
    uint64_t seed;          /* splitmix: xor-ed into the key */
    const uint64_t *table;  /* tabulation: 8 rows of 256 entries */
    i64 m;
    i64 group_size;
    i64 track_local;
    i64 track_eta;
    i64 node_cap;
    i64 edge_cap;
    i64 pool_cap;
    i64 cell_cap;
    i64 *node_bits;
    i64 *node_base;
    i64 *cell_head;
    i64 *cell_tau;
    i64 *cell_eta;
    u8 *cell_mark;
    i64 *pool_nbr;
    i64 *pool_eid;
    i64 *pool_nxt;
    i64 *edge_u;
    i64 *edge_v;
    i64 *edge_slot;
    i64 *edge_tri;
    u8 *edge_seen;
    i64 *tau;
    i64 *eta;
    i64 *edges_stored;
    i64 *mark;
    i64 *mark_eid;
    i64 *meta;
} rept_group;

/* The scalars of meta, which the entries advance in a local copy. */
enum { N_HALF, N_EDGES, EPOCH, N_CELLS, N_DEAD, N_META };

static inline i64 rept_popcount(uint64_t x)
{
    x = x - ((x >> 1) & 0x5555555555555555ULL);
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
    return (i64)((x * 0x0101010101010101ULL) >> 56);
}

static inline i64 rept_has_eta_local(const rept_group *g)
{
    return g->track_local && g->track_eta;
}

/* The cell of node x on slot s, which x holds: its block starts at
 * node_base[x] and keeps one cell per set bit of node_bits[x], in slot
 * order. */
static inline i64 rept_cell_of(const rept_group *g, i64 x, i64 s)
{
    uint64_t below = ((uint64_t)1 << s) - 1;
    return g->node_base[x] + rept_popcount((uint64_t)g->node_bits[x] & below);
}

/* The pool cells node x needs to gain slot s: none if it holds s, else
 * its whole block moves with one more cell. */
static inline i64 rept_cells_needed(const rept_group *g, i64 x, i64 s)
{
    i64 bits = g->node_bits[x];
    return (bits >> s) & 1 ? 0 : rept_popcount((uint64_t)bits) + 1;
}

/* Whether g has room to store edge {x, y} on slot: one edge, two
 * half-edges and the cells both endpoints may need. */
static inline i64 rept_store_room(const rept_group *g, i64 x, i64 y, i64 slot, const i64 *st)
{
    return st[N_EDGES] < g->edge_cap
        && st[N_HALF] + 2 <= g->pool_cap
        && st[N_CELLS] + rept_cells_needed(g, x, slot) + rept_cells_needed(g, y, slot)
            <= g->cell_cap;
}

/* The eid of edge {a, b} on slot, or -1.  Walks a's and b's neighbour
 * chains on that slot in lockstep: a stored edge sits in both, so the walk
 * stops after at most twice the smaller of the two degrees. */
static inline i64 rept_find_edge(const rept_group *g, i64 slot, i64 a, i64 b)
{
    if (!((g->node_bits[a] & g->node_bits[b]) >> slot & 1))
        return -1;
    i64 ha = g->cell_head[rept_cell_of(g, a, slot)];
    i64 hb = g->cell_head[rept_cell_of(g, b, slot)];
    while (ha != -1 && hb != -1) {
        if (g->pool_nbr[ha] == b)
            return g->pool_eid[ha];
        if (g->pool_nbr[hb] == a)
            return g->pool_eid[hb];
        ha = g->pool_nxt[ha];
        hb = g->pool_nxt[hb];
    }
    return -1;
}

/* Moves cell from to cell to and zeroes cell from. */
static inline void rept_move_cell(const rept_group *g, i64 from, i64 to)
{
    g->cell_head[to] = g->cell_head[from];
    g->cell_head[from] = 0;
    if (g->track_local) {
        g->cell_tau[to] = g->cell_tau[from];
        g->cell_tau[from] = 0;
    }
    if (rept_has_eta_local(g)) {
        g->cell_eta[to] = g->cell_eta[from];
        g->cell_eta[from] = 0;
        g->cell_mark[to] = g->cell_mark[from];
        g->cell_mark[from] = 0;
    }
}

/* Gives node x, which does not hold slot s, a cell on s with an empty
 * chain and zero counters, and returns it.  A block that ends the pool
 * grows in place; any other moves to the pool's end, and the cells it
 * leaves are zeroed and counted dead.  The caller has checked room for
 * rept_cells_needed(g, x, s) cells. */
static i64 rept_gain_cell(const rept_group *g, i64 x, i64 s, i64 *st)
{
    i64 bits = g->node_bits[x];
    i64 k = rept_popcount((uint64_t)bits);
    i64 rank = rept_popcount((uint64_t)bits & (((uint64_t)1 << s) - 1));
    i64 old = g->node_base[x];
    i64 top = st[N_CELLS];
    i64 base;
    if (k != 0 && old + k == top) {
        base = old;
        for (i64 c = old + k; c > old + rank; c--)
            rept_move_cell(g, c - 1, c);
        st[N_CELLS] = top + 1;
    } else {
        base = top;
        for (i64 j = 0; j < k; j++)
            rept_move_cell(g, old + j, top + j + (j >= rank));
        st[N_CELLS] = top + k + 1;
        st[N_DEAD] += k;
    }
    i64 c = base + rank;
    g->cell_head[c] = -1;
    if (g->track_local)
        g->cell_tau[c] = 0;
    if (rept_has_eta_local(g)) {
        g->cell_eta[c] = 0;
        g->cell_mark[c] = 0;
    }
    g->node_base[x] = base;
    g->node_bits[x] = bits | ((i64)1 << s);
    return c;
}

/* The cell of node x on slot s, gained if x does not hold s. */
static inline i64 rept_hold_cell(const rept_group *g, i64 x, i64 s, i64 *st)
{
    if ((g->node_bits[x] >> s) & 1)
        return rept_cell_of(g, x, s);
    return rept_gain_cell(g, x, s, st);
}

/* Stores edge {x, y} on slot: the id-ordered edge columns with per-edge
 * counter tri and flag seen, and x's half-edge then y's at the heads of
 * their cells' chains.  The one edge insert of the ingest loop and the
 * bulk append; the caller has checked rept_store_room. */
static inline void rept_link_edge(
    const rept_group *g, i64 x, i64 y, i64 slot, i64 tri, u8 seen, i64 *st)
{
    i64 e = st[N_EDGES];
    i64 h = st[N_HALF];
    g->edge_u[e] = x < y ? x : y;
    g->edge_v[e] = x < y ? y : x;
    g->edge_slot[e] = slot;
    g->edge_tri[e] = tri;
    g->edge_seen[e] = seen;
    i64 cx = rept_hold_cell(g, x, slot, st);
    i64 cy = rept_hold_cell(g, y, slot, st);
    g->pool_nbr[h] = y;
    g->pool_eid[h] = e;
    g->pool_nxt[h] = g->cell_head[cx];
    g->cell_head[cx] = h;
    g->pool_nbr[h + 1] = x;
    g->pool_eid[h + 1] = e;
    g->pool_nxt[h + 1] = g->cell_head[cy];
    g->cell_head[cy] = h + 1;
    st[N_EDGES] = e + 1;
    st[N_HALF] = h + 2;
}

/* One record through one group: the fused closure+store step of the
 * dict/set loop of ProcessorGroup._ingest, which the kernel-parity
 * suites hold it to bit for bit.  st is the local copy of meta.  The
 * neighbourhood intersection stamps N_u with a fresh epoch, so each
 * membership test during the N_v walk is one comparison and no clearing
 * pass runs between edges.  A slot both endpoints hold may have an empty
 * chain (a cell a fold gave a counter); the walk finds nothing there.
 * On the record's own slot the stamp also says whether E(i) already
 * holds the edge (iv is in N_u), and then nothing is stored.  The caller
 * has checked room for a store. */
static inline void rept_record_step(
    const rept_group *g, i64 iu, i64 iv, i64 slot, i64 *st)
{
    i64 track_local = g->track_local;
    i64 track_eta = g->track_eta;
    i64 eta_local = track_local && track_eta;
    const i64 *node_bits = g->node_bits;
    const i64 *node_base = g->node_base;
    const i64 *cell_head = g->cell_head;
    i64 *cell_tau = g->cell_tau;
    i64 *cell_eta = g->cell_eta;
    u8 *cell_mark = g->cell_mark;
    const i64 *pool_nbr = g->pool_nbr;
    const i64 *pool_eid = g->pool_eid;
    const i64 *pool_nxt = g->pool_nxt;
    i64 *edge_tri = g->edge_tri;
    u8 *edge_seen = g->edge_seen;
    i64 *mark = g->mark;
    i64 *mark_eid = g->mark_eid;
    i64 bits_u = node_bits[iu];
    i64 bits_v = node_bits[iv];
    i64 candidates = bits_u & bits_v;
    i64 closing_at_store = 0;
    i64 storeable = slot < g->group_size;
    i64 held = 0;
    while (candidates != 0) {
        i64 low = candidates & (-candidates);
        candidates -= low;
        i64 s = 0;
        i64 low_bits = low;
        while (low_bits > 1) {
            low_bits >>= 1;
            s += 1;
        }
        uint64_t below = (uint64_t)low - 1;
        i64 cu = node_base[iu] + rept_popcount((uint64_t)bits_u & below);
        i64 cv = node_base[iv] + rept_popcount((uint64_t)bits_v & below);
        i64 stamp = ++st[EPOCH];
        i64 h = cell_head[cu];
        while (h != -1) {
            i64 w = pool_nbr[h];
            mark[w] = stamp;
            mark_eid[w] = pool_eid[h];
            h = pool_nxt[h];
        }
        if (s == slot)
            held = mark[iv] == stamp;
        i64 closed = 0;
        h = cell_head[cv];
        while (h != -1) {
            i64 w = pool_nbr[h];
            if (mark[w] == stamp) {
                closed += 1;
                i64 cw = track_local
                    ? node_base[w] + rept_popcount((uint64_t)node_bits[w] & below)
                    : 0;
                if (track_local)
                    cell_tau[cw] += 1;
                if (track_eta) {
                    i64 e_uw = mark_eid[w];
                    i64 e_vw = pool_eid[h];
                    i64 count_uw = edge_tri[e_uw];
                    i64 count_vw = edge_tri[e_vw];
                    g->eta[s] += count_uw + count_vw;
                    if (eta_local) {
                        cell_eta[cw] += count_uw + count_vw;
                        cell_eta[cu] += count_uw;
                        cell_eta[cv] += count_vw;
                        cell_mark[cw] = 1;
                        cell_mark[cu] = 1;
                        cell_mark[cv] = 1;
                    }
                    edge_tri[e_uw] = count_uw + 1;
                    edge_tri[e_vw] = count_vw + 1;
                    edge_seen[e_uw] = 1;
                    edge_seen[e_vw] = 1;
                }
            }
            h = pool_nxt[h];
        }
        if (closed != 0) {
            g->tau[s] += closed;
            if (track_local) {
                cell_tau[cu] += closed;
                cell_tau[cv] += closed;
            }
            if (storeable && s == slot)
                closing_at_store = closed;
        }
    }
    if (held || !storeable)
        return;
    rept_link_edge(g, iu, iv, slot, track_eta ? closing_at_store : 0, track_eta ? 1 : 0, st);
    g->edges_stored[slot] += 1;
}

static inline void rept_load(const rept_group *g, i64 *st)
{
    for (int i = 0; i < N_META; i++)
        st[i] = g->meta[i];
}

static inline void rept_save(const rept_group *g, const i64 *st)
{
    for (int i = 0; i < N_META; i++)
        g->meta[i] = st[i];
}

static inline uint64_t rept_splitmix64(uint64_t x)
{
    uint64_t z = x + 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* The group's bucket of a canonical edge key: EdgeHashFunction.bucket
 * bit for bit, for SplitMixEdgeHash (splitmix64 of key ^ seed) and
 * TabulationEdgeHash (byte i of the unseeded splitmix64 indexes row i). */
static inline i64 rept_slot(const rept_group *g, uint64_t key)
{
    uint64_t h;
    if (g->hash_kind == 0) {
        h = rept_splitmix64(key ^ g->seed);
    } else {
        uint64_t mixed = rept_splitmix64(key);
        h = 0;
        for (int i = 0; i < 8; i++)
            h ^= g->table[i * 256 + ((mixed >> (8 * i)) & 0xFF)];
    }
    return (i64)(h % (uint64_t)g->m);
}

/* Whether the record {x, y} on slot fits: a virtual slot stores nothing,
 * and a real one needs room unless E(i) already holds the edge, which is
 * looked up only when room is short. */
static inline i64 rept_record_fits(const rept_group *g, i64 x, i64 y, i64 slot, const i64 *st)
{
    return slot >= g->group_size
        || rept_store_room(g, x, y, slot, st)
        || rept_find_edge(g, slot, x, y) >= 0;
}

/* The one record loop: the closure+store step of one group over records
 * start..n-1 with canonical edge keys keys[k], each hashed to its slot
 * here.  Node columns must cover every id; a record that may store is
 * checked for room first, and the loop stops before the first one that
 * does not fit.  Returns the index of that record, or n: the caller grows
 * the group and calls again from there. */
static i64 rept_records(
    const rept_group *group, i64 start, i64 n,
    const i64 *cu, const i64 *cv, const uint64_t *keys)
{
    const rept_group g = *group;
    i64 st[N_META];
    rept_load(&g, st);
    i64 k;
    for (k = start; k < n; k++) {
        i64 slot = rept_slot(&g, keys[k]);
        if (!rept_record_fits(&g, cu[k], cv[k], slot, st))
            break;
        rept_record_step(&g, cu[k], cv[k], slot, st);
    }
    rept_save(&g, st);
    return k;
}

/* The groups of one state set (EdgeEntry in Python): a flag per group
 * for the per-edge entry, and for the batch entry a record index per group
 * and the number of threads its last call started. */
typedef struct {
    i64 n_groups;
    rept_group *const *groups;
    u8 *stored_flags;
    i64 *stops;
    i64 threads;
} rept_edge_entry;

/* One batch call: the records every job reads, and the next group to claim. */
typedef struct {
    const rept_edge_entry *entry;
    i64 n;
    const i64 *cu;
    const i64 *cv;
    const uint64_t *keys;
    i64 next;
} rept_batch;

/* Runs group k's record loop from its stop index, if it has records left. */
static void rept_batch_job(rept_batch *b, i64 k)
{
    i64 *stops = b->entry->stops;
    if (stops[k] < b->n)
        stops[k] = rept_records(b->entry->groups[k], stops[k], b->n, b->cu, b->cv, b->keys);
}

/* Claims groups until none is left.  Groups share no state, so any
 * thread may run any group; each is claimed exactly once. */
static void *rept_batch_worker(void *arg)
{
    rept_batch *b = arg;
    i64 k;
    while ((k = __atomic_fetch_add(&b->next, 1, __ATOMIC_RELAXED)) < b->entry->n_groups)
        rept_batch_job(b, k);
    return NULL;
}

/* The most threads one batch call starts, the calling thread aside. */
#define REPT_MAX_THREADS 255

/* Whether g has the edge room to store count more edges without growing:
 * as many free edge rows and twice as many free half-edges.  (The cells a
 * store takes depend on the slots its endpoints already hold, so they are
 * not counted.) */
static inline i64 rept_room_for(const rept_group *g, i64 count)
{
    return g->edge_cap - g->meta[N_EDGES] >= count
        && g->pool_cap - g->meta[N_HALF] >= 2 * count;
}

/* The batch entry: each group k of a state set runs rept_records over
 * records stops[k]..n-1 of an encoded batch and writes where it stopped
 * back to stops[k].  A group earns a thread when it has at least
 * thread_floor records left and room to store thread_floor more edges:
 * the call runs on min(such groups, max_threads) threads, the calling
 * thread included and taking the first group, and every thread it starts
 * is joined before it returns; a thread that cannot be started leaves its
 * groups to the others.  Returns the number of groups that stopped short:
 * the caller grows those and calls again. */
int64_t rept_ingest_groups(
    rept_edge_entry *entry, i64 n,
    const i64 *cu, const i64 *cv, const uint64_t *keys,
    i64 thread_floor, i64 max_threads)
{
    rept_batch b = {entry, n, cu, cv, keys, 1};
    i64 n_groups = entry->n_groups;
    i64 *stops = entry->stops;
    i64 earned = 0;
    for (i64 k = 0; k < n_groups; k++)
        earned += stops[k] < n && n - stops[k] >= thread_floor
            && rept_room_for(entry->groups[k], thread_floor);
    i64 wanted = (earned < max_threads ? earned : max_threads) - 1;
    if (wanted > REPT_MAX_THREADS)
        wanted = REPT_MAX_THREADS;
    pthread_t threads[REPT_MAX_THREADS];
    i64 started = 0;
    while (started < wanted
           && pthread_create(&threads[started], NULL, rept_batch_worker, &b) == 0)
        started++;
    entry->threads = started;
    rept_batch_job(&b, 0);
    rept_batch_worker(&b);
    for (i64 t = 0; t < started; t++)
        pthread_join(threads[t], NULL);
    i64 short_of_room = 0;
    for (i64 k = 0; k < n_groups; k++)
        short_of_room += stops[k] < n;
    return short_of_room;
}

/* The per-edge path: one interned record {iu, iv} with canonical edge key
 * key through every group of a state set.  All or nothing: unless every
 * group has room (node columns above both ids and, where it stores, one
 * more edge, two half-edges and the cells both endpoints may need), it
 * changes no state, sets stored[k] to whether group k would store (its
 * slot is real and E(i) lacks the edge; an id past the node columns holds
 * no slot), and returns -1 so the caller grows those groups and calls
 * again.  Otherwise each group runs rept_records over the one record,
 * stored[k] is whether group k stored, and the return value is their
 * number. */
int64_t rept_ingest_edge(
    const rept_edge_entry *entry, uint64_t key, i64 iu, i64 iv)
{
    i64 n_groups = entry->n_groups;
    rept_group *const *groups = entry->groups;
    u8 *stored = entry->stored_flags;
    i64 top = iu > iv ? iu : iv;
    i64 short_of_room = 0;
    for (i64 k = 0; k < n_groups && !short_of_room; k++) {
        const rept_group *g = groups[k];
        short_of_room = top >= g->node_cap
            || !rept_record_fits(g, iu, iv, rept_slot(g, key), g->meta);
    }
    if (short_of_room) {
        for (i64 k = 0; k < n_groups; k++) {
            const rept_group *g = groups[k];
            i64 slot = rept_slot(g, key);
            stored[k] = slot < g->group_size
                && (top >= g->node_cap || rept_find_edge(g, slot, iu, iv) < 0);
        }
        return -1;
    }
    i64 count = 0;
    for (i64 k = 0; k < n_groups; k++) {
        i64 before = groups[k]->meta[N_EDGES];
        rept_records(groups[k], 0, 1, &iu, &iv, &key);
        stored[k] = groups[k]->meta[N_EDGES] != before;
        count += stored[k];
    }
    return count;
}

/* Cold-path bulk insert of id-ordered edges start..n-1 (us[k] < vs[k]) on
 * slots ss[k] with zeroed per-edge counters (GroupArrays.append_edges).
 * Node columns must cover every id; stops before the first edge that does
 * not fit and returns its index, or n. */
int64_t rept_append_edges(
    i64 start, i64 n, const i64 *us, const i64 *vs, const i64 *ss,
    const rept_group *group)
{
    const rept_group g = *group;
    i64 st[N_META];
    rept_load(&g, st);
    i64 k;
    for (k = start; k < n; k++) {
        if (!rept_store_room(&g, us[k], vs[k], ss[k], st))
            break;
        rept_link_edge(&g, us[k], vs[k], ss[k], 0, 0, st);
    }
    rept_save(&g, st);
    return k;
}

/* Adds values vs[k] to the tau_v cells (eta == 0) or to the eta_v cells,
 * marking them (eta == 1), of nodes xs[k] on slots ss[k] for k in
 * start..n-1.  A node that does not hold the slot gains a cell with an
 * empty chain.  Node columns must cover every id; stops before the first
 * entry whose cell does not fit and returns its index, or n. */
int64_t rept_add_cells(
    i64 start, i64 n, const i64 *ss, const i64 *xs, const i64 *vs, i64 eta,
    const rept_group *group)
{
    const rept_group g = *group;
    i64 st[N_META];
    rept_load(&g, st);
    i64 k;
    for (k = start; k < n; k++) {
        i64 s = ss[k];
        i64 x = xs[k];
        if (st[N_CELLS] + rept_cells_needed(&g, x, s) > g.cell_cap)
            break;
        i64 c = rept_hold_cell(&g, x, s, st);
        if (eta) {
            g.cell_eta[c] += vs[k];
            g.cell_mark[c] = 1;
        } else {
            g.cell_tau[c] += vs[k];
        }
    }
    rept_save(&g, st);
    return k;
}

/* out[k] = the eid of edge {us[k], vs[k]} on slot ss[k], or -1. */
int64_t rept_find_edges(
    i64 n, const i64 *ss, const i64 *us, const i64 *vs,
    const rept_group *g, i64 *out)
{
    for (i64 k = 0; k < n; k++)
        out[k] = rept_find_edge(g, ss[k], us[k], vs[k]);
    return 0;
}

/* Folds n detached per-edge counters ds[k] of edges {us[k], vs[k]} on
 * slots ss[k] into the stored edges' counters, with the eta correction of
 * ProcessorCounters.merge against each prior value (on both endpoints'
 * eta_v cells too when the group tracks them; a stored edge's endpoints
 * hold its slot).  Writes the indices k whose edge is not stored to misses
 * and returns their number; the caller folds those into its loose side
 * dicts. */
int64_t rept_fold_edge_counters(
    i64 n, const i64 *ss, const i64 *us, const i64 *vs, const i64 *ds,
    const rept_group *g, i64 *misses)
{
    i64 n_miss = 0;
    i64 eta_local = rept_has_eta_local(g);
    for (i64 k = 0; k < n; k++) {
        i64 s = ss[k];
        i64 a = us[k];
        i64 b = vs[k];
        i64 e = rept_find_edge(g, s, a, b);
        if (e < 0) {
            misses[n_miss++] = k;
            continue;
        }
        i64 prior = g->edge_seen[e] ? g->edge_tri[e] : 0;
        g->edge_tri[e] = prior + ds[k];
        g->edge_seen[e] = 1;
        if (prior != 0) {
            i64 correction = ds[k] * prior;
            g->eta[s] += correction;
            if (eta_local) {
                i64 ca = rept_cell_of(g, a, s);
                i64 cb = rept_cell_of(g, b, s);
                g->cell_eta[ca] += correction;
                g->cell_eta[cb] += correction;
                g->cell_mark[ca] = 1;
                g->cell_mark[cb] = 1;
            }
        }
    }
    return n_miss;
}

/* Writes the non-zero tau_v cells as (slot, node, value) columns of tau_out
 * (row stride tau_stride) and the marked eta_v cells likewise to eta_out,
 * node by node and by slot within a node; with take != 0 it zeroes them
 * (the pane take).  counts receives the two numbers of cells written. */
int64_t rept_read_cells(
    const rept_group *g, i64 take,
    i64 *tau_out, i64 tau_stride, i64 *eta_out, i64 eta_stride, i64 *counts)
{
    i64 track_local = g->track_local;
    i64 eta_local = rept_has_eta_local(g);
    i64 n_tau = 0;
    i64 n_eta = 0;
    for (i64 x = 0; x < g->node_cap; x++) {
        i64 bits = g->node_bits[x];
        i64 c = g->node_base[x];
        for (; bits != 0; bits &= bits - 1, c++) {
            i64 s = rept_popcount((uint64_t)((bits & -bits) - 1));
            if (track_local && g->cell_tau[c] != 0) {
                tau_out[n_tau] = s;
                tau_out[tau_stride + n_tau] = x;
                tau_out[2 * tau_stride + n_tau] = g->cell_tau[c];
                n_tau++;
                if (take)
                    g->cell_tau[c] = 0;
            }
            if (eta_local && g->cell_mark[c]) {
                eta_out[n_eta] = s;
                eta_out[eta_stride + n_eta] = x;
                eta_out[2 * eta_stride + n_eta] = g->cell_eta[c];
                n_eta++;
                if (take) {
                    g->cell_eta[c] = 0;
                    g->cell_mark[c] = 0;
                }
            }
        }
    }
    counts[0] = n_tau;
    counts[1] = n_eta;
    return 0;
}

/* Packs every node's block, node by node, into the zeroed columns head,
 * tau, eta and mark (the tracked ones), rewriting node_base, and returns
 * the number of cells: the abandoned cells are left behind. */
int64_t rept_compact_cells(
    const rept_group *g, i64 *head, i64 *tau, i64 *eta, u8 *mark)
{
    i64 track_local = g->track_local;
    i64 eta_local = rept_has_eta_local(g);
    i64 top = 0;
    for (i64 x = 0; x < g->node_cap; x++) {
        i64 bits = g->node_bits[x];
        if (bits == 0)
            continue;
        i64 k = rept_popcount((uint64_t)bits);
        i64 old = g->node_base[x];
        for (i64 j = 0; j < k; j++) {
            head[top + j] = g->cell_head[old + j];
            if (track_local)
                tau[top + j] = g->cell_tau[old + j];
            if (eta_local) {
                eta[top + j] = g->cell_eta[old + j];
                mark[top + j] = g->cell_mark[old + j];
            }
        }
        g->node_base[x] = top;
        top += k;
    }
    return top;
}

/* -- the encode pass --------------------------------------------------------
 * NodeInterner's int64 id cache is an open-addressing table with linear
 * probing over raw int64 values, tab_id[h] == -1 marking an empty cell. */

static inline i64 rept_cell(uint64_t key, i64 mask)
{
    uint64_t h = key * 0x9E3779B97F4A7C15ULL;
    return (i64)((h ^ (h >> 32)) & (uint64_t)mask);
}

/* out[k] = the cached id of values[k], or -1 when the cache lacks it. */
int64_t rept_table_lookup(
    i64 n, const i64 *values, const i64 *tab_val, const i64 *tab_id, i64 mask,
    i64 *out)
{
    for (i64 k = 0; k < n; k++) {
        i64 h = rept_cell((uint64_t)values[k], mask);
        i64 id;
        while ((id = tab_id[h]) != -1 && tab_val[h] != values[k])
            h = (h + 1) & mask;
        out[k] = id;
    }
    return 0;
}

/* Inserts n (value, id) pairs absent from the table; the caller keeps it
 * at most half full. */
int64_t rept_table_insert(
    i64 n, const i64 *values, const i64 *ids,
    i64 *tab_val, i64 *tab_id, i64 mask)
{
    for (i64 k = 0; k < n; k++) {
        i64 h = rept_cell((uint64_t)values[k], mask);
        while (tab_id[h] != -1)
            h = (h + 1) & mask;
        tab_val[h] = values[k];
        tab_id[h] = ids[k];
    }
    return 0;
}

/* The column form of NodeInterner.encode_pairs over interleaved endpoints:
 * raw int64 values flat[2k], flat[2k+1] and their dense ids ids[2k],
 * ids[2k+1].  Skips self-loops, canonicalises by raw value and writes the
 * dense ids cu/cv.  Returns the number of records written. */
int64_t rept_encode_columns(i64 n, const i64 *flat, const i64 *ids, i64 *cu, i64 *cv)
{
    i64 out = 0;
    for (i64 k = 0; k < n; k++) {
        i64 u = flat[2 * k];
        i64 v = flat[2 * k + 1];
        if (u == v)
            continue;
        i64 swap = u > v;
        cu[out] = ids[2 * k + swap];
        cv[out] = ids[2 * k + 1 - swap];
        out++;
    }
    return out;
}
"""

#: The loaded kernel library, or the exception that stopped it from
#: loading; ``None`` until first probed.
_kernel = None


def _kernel_cache_dir() -> str:
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return override
    return os.path.join(tempfile.gettempdir(), "repro-kernel-cache")


#: The flags the kernel is compiled with (``-pthread`` for the batch entry's
#: threads).
CFLAGS = ("-O3", "-fPIC", "-shared", "-pthread")


def _cached_build(compiler: str, flags) -> str:
    """The cached library's path for one compiler and one set of flags.

    The name hashes the compiler, the flags and the source, so changing
    any of them builds afresh instead of loading a stale library.
    """
    key = "\0".join((compiler, *flags, _C_SOURCE))
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    return os.path.join(_kernel_cache_dir(), f"rept_kernel_{digest}.so")


def _build():
    """Compile (or load the cached) C kernel; raises on any failure."""
    compiler = os.environ.get("CC") or shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        raise RuntimeError("no C compiler found")
    so_path = _cached_build(compiler, CFLAGS)
    if not os.path.exists(so_path):
        os.makedirs(os.path.dirname(so_path), exist_ok=True)
        src_path = so_path[: -len(".so")] + ".c"
        tmp_path = f"{so_path}.{os.getpid()}.tmp"
        with open(src_path, "w") as handle:
            handle.write(_C_SOURCE)
        subprocess.run(
            [compiler, *CFLAGS, "-o", tmp_path, src_path],
            check=True,
            capture_output=True,
        )
        # Atomic publish: concurrent builders race benignly.
        os.replace(tmp_path, so_path)
    lib = ctypes.CDLL(so_path)
    ptr = ctypes.c_void_p
    i64 = ctypes.c_int64
    signatures = {
        "rept_ingest_groups": [
            ptr, i64,                     # entry, n
            ptr, ptr, ptr,                # cu, cv, keys
            i64, i64,                     # thread floor, most threads
        ],
        "rept_ingest_edge": [
            ptr, ctypes.c_uint64,         # entry, key
            i64, i64,                     # iu, iv
        ],
        "rept_append_edges": [
            i64, i64, ptr, ptr, ptr,      # start, n, us, vs, ss
            ptr,                          # group record
        ],
        "rept_add_cells": [
            i64, i64, ptr, ptr, ptr, i64, # start, n, ss, xs, vs, eta
            ptr,                          # group record
        ],
        "rept_find_edges": [
            i64, ptr, ptr, ptr,           # n, ss, us, vs
            ptr, ptr,                     # group record, out
        ],
        "rept_fold_edge_counters": [
            i64, ptr, ptr, ptr, ptr,      # n, ss, us, vs, ds
            ptr, ptr,                     # group record, misses
        ],
        "rept_read_cells": [
            ptr, i64,                     # group record, take
            ptr, i64, ptr, i64,           # tau_out, its stride, eta_out, its stride
            ptr,                          # counts
        ],
        "rept_compact_cells": [
            ptr, ptr, ptr, ptr, ptr,      # group record, head, tau, eta, mark
        ],
        "rept_table_lookup": [
            i64, ptr, ptr, ptr, i64,      # n, values, tab_val, tab_id, mask
            ptr,                          # out
        ],
        "rept_table_insert": [
            i64, ptr, ptr,                # n, values, ids
            ptr, ptr, i64,                # tab_val, tab_id, mask
        ],
        "rept_encode_columns": [
            i64, ptr, ptr,                # n, flat, ids
            ptr, ptr,                     # cu, cv
        ],
    }
    for name, argtypes in signatures.items():
        fn = getattr(lib, name)
        fn.restype = i64
        fn.argtypes = argtypes
    return lib


def _load():
    """The kernel library or its build failure, probed once per process."""
    global _kernel
    if _kernel is None:
        try:
            _kernel = _build()
        except Exception as exc:
            _kernel = exc
    return _kernel


def _handle():
    kernel = _load()
    if isinstance(kernel, Exception):
        raise ConfigurationError(
            f"the C ingestion kernel cannot be built here: {kernel}"
        ) from kernel
    return kernel


def native_available() -> bool:
    """Whether the C kernel builds and loads here (``REPRO_KERNEL`` aside)."""
    return not isinstance(_load(), Exception)


def reset_kernel_cache() -> None:
    """Forget the memoised build probe (test hook)."""
    global _kernel
    _kernel = None


def _python_forced() -> bool:
    return os.environ.get("REPRO_KERNEL", "").strip().lower() == "python"


def resolve_kernel(requested: str, max_group_size: Optional[int] = None) -> str:
    """Resolve a kernel request to ``"python"`` or :data:`NATIVE_LABEL`.

    ``requested`` is one of :data:`KERNEL_CHOICES`; ``max_group_size``
    gates native eligibility (signed-int64 slot bitmasks limit native
    groups to :data:`MAX_NATIVE_GROUP_SIZE` slots — wider groups fall back
    under ``auto`` and are rejected for ``native``).  ``REPRO_KERNEL=python``
    makes ``auto`` resolve to ``"python"`` and ``native`` raise.  Raises
    :class:`~repro.exceptions.ConfigurationError` when a ``native`` request
    cannot be satisfied, naming the build failure if there was one.
    """
    if requested not in KERNEL_CHOICES:
        raise ConfigurationError(
            f"kernel must be one of {KERNEL_CHOICES}, got {requested!r}"
        )
    if requested == "python":
        return "python"
    fits = max_group_size is None or max_group_size <= MAX_NATIVE_GROUP_SIZE
    if requested == "auto":
        if fits and not _python_forced() and native_available():
            return NATIVE_LABEL
        return "python"
    if not fits:
        raise ConfigurationError(
            f"kernel='native' requires every group size <= "
            f"{MAX_NATIVE_GROUP_SIZE} (got {max_group_size})"
        )
    if _python_forced():
        raise ConfigurationError(
            "kernel='native' requested but REPRO_KERNEL=python disables "
            "the C kernel in this environment"
        )
    _handle()
    return NATIVE_LABEL


#: The :class:`~repro.core.adjacency.GroupArrays` columns whose addresses
#: a :class:`GroupRecord` holds, in the order of the C ``rept_group``.
RECORD_COLUMNS = (
    "node_bits", "node_base", "cell_head", "cell_tau", "cell_eta", "cell_mark",
    "pool_nbr", "pool_eid", "pool_nxt",
    "edge_u", "edge_v", "edge_slot", "edge_tri", "edge_seen",
    "tau", "eta", "edges_stored", "mark", "mark_eid", "meta",
)


class GroupRecord(ctypes.Structure):
    """One group's state record, the C ``rept_group``.

    It holds the group's hash (:func:`bind_hash`), its shape, and the
    capacities and addresses of its
    :class:`~repro.core.adjacency.GroupArrays` columns
    (:func:`sync_record`).  Addresses die when a column is reallocated, so
    ``GroupArrays`` rewrites them on every growth and compaction; a record
    is never pickled, and an unpickled group builds a new one.
    """

    _fields_ = [
        ("hash_kind", ctypes.c_int64),
        ("seed", ctypes.c_uint64),
        ("table", ctypes.c_void_p),
        ("m", ctypes.c_int64),
        ("group_size", ctypes.c_int64),
        ("track_local", ctypes.c_int64),
        ("track_eta", ctypes.c_int64),
        ("node_cap", ctypes.c_int64),
        ("edge_cap", ctypes.c_int64),
        ("pool_cap", ctypes.c_int64),
        ("cell_cap", ctypes.c_int64),
    ] + [(name, ctypes.c_void_p) for name in RECORD_COLUMNS]


def sync_record(record: GroupRecord, arrays) -> None:
    """Write the shape, capacities and column addresses of ``arrays``."""
    record.group_size = arrays.group_size
    record.track_local = 1 if arrays.track_local else 0
    record.track_eta = 1 if arrays.track_eta else 0
    record.node_cap = arrays.node_cap
    record.edge_cap = arrays.edge_cap
    record.pool_cap = arrays.pool_cap
    record.cell_cap = arrays.cell_cap
    for name in RECORD_COLUMNS:
        # The address through a zero-copy view of the writable buffer:
        # ``ndarray.ctypes.data`` builds a helper object and costs three
        # times as much, and a monitor pass syncs records about a thousand
        # times.
        view = ctypes.c_char.from_buffer(getattr(arrays, name))
        setattr(record, name, ctypes.addressof(view))


def bind_hash(record: GroupRecord, hash_function) -> None:
    """Write the parameters of a group's hash into its record.

    The compiled per-edge hash ports the two families
    ``ReptConfig.hash_kind`` admits; any other
    :class:`~repro.hashing.base.EdgeHashFunction` raises
    :class:`~repro.exceptions.ConfigurationError`.  The record holds the
    tabulation rows' address, so the group must keep its hash function.
    """
    from repro.hashing import SplitMixEdgeHash, TabulationEdgeHash

    family = type(hash_function)
    if family is SplitMixEdgeHash:
        record.hash_kind = 0
        record.seed = hash_function.seed
        record.table = None
    elif family is TabulationEdgeHash:
        tables = hash_function.tables
        if tables.shape != (8, 256) or tables.dtype != np.uint64 or not tables.flags.c_contiguous:
            raise ConfigurationError("tabulation rows must be one C-ordered (8, 256) uint64 array")
        record.hash_kind = 1
        record.seed = 0
        record.table = tables.ctypes.data
    else:
        raise ConfigurationError(
            f"the C kernel hashes SplitMixEdgeHash and TabulationEdgeHash "
            f"only, not {family.__name__}"
        )
    record.m = hash_function.buckets


class EdgeEntry(ctypes.Structure):
    """The C ``rept_edge_entry`` of one state set: its group records.

    ``ingest(address, key, iu, iv)`` is the compiled per-edge call
    (``rept_ingest_edge``), :attr:`stored` the flag per group it writes;
    :func:`run_groups` is the batch call over the same records, and
    :attr:`stops` the record index per group it reads and writes.  The
    entry keeps the records alive, so the addresses it holds stay valid as
    long as it does; it is never pickled.
    """

    _fields_ = [
        ("n_groups", ctypes.c_int64),
        ("groups", ctypes.c_void_p),
        ("stored_flags", ctypes.c_void_p),
        ("stops_address", ctypes.c_void_p),
        ("threads", ctypes.c_int64),
    ]

    def __init__(self, records) -> None:
        super().__init__()
        n = len(records)
        self.records = list(records)
        pointers = (ctypes.c_void_p * n)(*map(ctypes.addressof, self.records))
        #: Whether each group stored the last record (would store, after -1).
        self.stored = bytearray(n)
        view = (ctypes.c_uint8 * n).from_buffer(self.stored)
        #: Where each group resumes a batch call, and then where it stopped.
        self.stops = np.zeros(n, np.int64)
        self._keep = (pointers, view)
        self.n_groups = n
        self.groups = ctypes.addressof(pointers)
        self.stored_flags = ctypes.addressof(view)
        self.stops_address = self.stops.ctypes.data
        self.address = ctypes.addressof(self)
        self.ingest = _handle().rept_ingest_edge
        self._batch = _handle().rept_ingest_groups


def run_groups(entry: EdgeEntry, n: int, cu, cv, keys) -> int:
    """Run every group of ``entry`` over records ``entry.stops[k]..n-1`` of
    one encoded batch, in one compiled call.

    ``keys`` holds the records' canonical uint64 edge keys, which each
    group hashes to its slots; every group's node columns must cover every
    id.  A group with at least :data:`THREAD_FLOOR` records left and room
    to store as many edges earns a thread, up to :data:`CPUS` threads with
    the calling one, and all are joined before the call returns
    (:attr:`EdgeEntry.threads` counts the ones it started).  Each group's
    stop index is written back to ``entry.stops``; returns the number of
    groups that stopped short (see :func:`~repro.core.adjacency.ingest_batch`).
    """
    return entry._batch(
        entry.address,
        n,
        cu.ctypes.data,
        cv.ctypes.data,
        keys.ctypes.data,
        THREAD_FLOOR,
        CPUS,
    )


def append_edges(start: int, us: np.ndarray, vs: np.ndarray, ss: np.ndarray, record) -> int:
    """Append id-ordered edges ``us[k] < vs[k]`` on slots ``ss[k]`` from
    ``start`` on, with per-edge counters zero.

    Node columns must cover every id.  Returns the index of the first edge
    that does not fit, or the number of edges.
    """
    return _handle().rept_append_edges(
        start, len(us), us.ctypes.data, vs.ctypes.data, ss.ctypes.data, ctypes.byref(record)
    )


def add_cells(start: int, ss: np.ndarray, xs: np.ndarray, vs: np.ndarray, eta: bool, record) -> int:
    """Add ``vs[k]`` to the ``τ_v`` cells, or to the ``η_v`` cells (marking
    them), of nodes ``xs[k]`` on slots ``ss[k]`` from ``start`` on.

    A node that does not hold the slot gains a cell with an empty chain.
    Node columns must cover every id.  Returns the index of the first
    entry whose cell does not fit, or the number of entries.
    """
    return _handle().rept_add_cells(
        start,
        len(ss),
        ss.ctypes.data,
        xs.ctypes.data,
        vs.ctypes.data,
        1 if eta else 0,
        ctypes.byref(record),
    )


def find_edges(ss: np.ndarray, us: np.ndarray, vs: np.ndarray, record) -> np.ndarray:
    """The eid of each edge ``{us[k], vs[k]}`` on slot ``ss[k]``, or -1.

    Every id must be below the group's ``node_cap``.
    """
    ss, us, vs = (np.ascontiguousarray(c, np.int64) for c in (ss, us, vs))
    out = np.empty(len(ss), np.int64)
    _handle().rept_find_edges(
        len(ss),
        ss.ctypes.data,
        us.ctypes.data,
        vs.ctypes.data,
        ctypes.byref(record),
        out.ctypes.data,
    )
    return out


def fold_edge_counters(
    ss: np.ndarray, us: np.ndarray, vs: np.ndarray, ds: np.ndarray, record
) -> np.ndarray:
    """Fold per-edge counter deltas ``ds[k]`` into the stored edges.

    Applies :meth:`~repro.core.state.ProcessorCounters.merge`'s η
    correction against each stored edge's prior counter and returns the
    indices ``k`` whose edge ``{us[k], vs[k]}`` is not stored on slot
    ``ss[k]`` (left untouched for the caller).  Ids must be below the
    group's ``node_cap``.
    """
    ss, us, vs, ds = (np.ascontiguousarray(c, np.int64) for c in (ss, us, vs, ds))
    misses = np.empty(len(ss), np.int64)
    n_miss = _handle().rept_fold_edge_counters(
        len(ss),
        ss.ctypes.data,
        us.ctypes.data,
        vs.ctypes.data,
        ds.ctypes.data,
        ctypes.byref(record),
        misses.ctypes.data,
    )
    return misses[:n_miss]


def read_cells(record, take: bool, tau_out: np.ndarray, eta_out: np.ndarray) -> np.ndarray:
    """Write a group's non-zero ``τ_v`` cells and marked ``η_v`` cells as
    ``(slot, node, value)`` columns of ``tau_out`` and ``eta_out`` (each
    ``(3, k)`` with room for every cell), node by node; ``take`` zeroes
    them.  Returns the two numbers of cells written."""
    counts = np.zeros(2, np.int64)
    _handle().rept_read_cells(
        ctypes.byref(record),
        1 if take else 0,
        tau_out.ctypes.data,
        tau_out.shape[1],
        eta_out.ctypes.data,
        eta_out.shape[1],
        counts.ctypes.data,
    )
    return counts


def compact_cells(record, head, tau, eta, mark) -> int:
    """Pack a group's cell blocks node by node into the zeroed columns
    ``head``/``tau``/``eta``/``mark`` and rewrite its ``node_base``;
    returns the number of cells."""
    return _handle().rept_compact_cells(
        ctypes.byref(record), head.ctypes.data, tau.ctypes.data, eta.ctypes.data, mark.ctypes.data
    )


def table_lookup(values: np.ndarray, table_val, table_id, out: np.ndarray) -> None:
    """``out[k]`` = the id an int64 table holds for ``values[k]``, or -1."""
    _handle().rept_table_lookup(
        len(values),
        values.ctypes.data,
        table_val.ctypes.data,
        table_id.ctypes.data,
        len(table_id) - 1,
        out.ctypes.data,
    )


def table_insert(values: np.ndarray, ids: np.ndarray, table_val, table_id) -> None:
    """Insert ``(values[k], ids[k])`` pairs absent from an int64 table
    (kept at most half full by the caller)."""
    _handle().rept_table_insert(
        len(values),
        values.ctypes.data,
        ids.ctypes.data,
        table_val.ctypes.data,
        table_id.ctypes.data,
        len(table_id) - 1,
    )


def encode_columns(flat, ids, cu, cv) -> int:
    """Run the encode pass over interleaved int64 endpoints and their ids.

    ``flat`` holds the raw values and ``ids`` the dense ids of a batch's
    endpoints ``[u0, v0, u1, v1, ...]``; the output columns hold one entry
    per record.  Returns the number of records written (self-loops are
    skipped).
    """
    return _handle().rept_encode_columns(
        len(flat) // 2, flat.ctypes.data, ids.ctypes.data, cu.ctypes.data, cv.ctypes.data
    )
