/* The whole-loop cycle engine of the cloop backend (repro.core.cloop).
 *
 * An operation-for-operation transcription of the vectorized engine's
 * cycle loop over a slot pool of in-flight uops.  cloop.h declares its
 * interface; repro.core.ckernel builds this file into a shared library
 * loaded through cffi. */


#include <stdlib.h>
#include <string.h>

#include "cloop.h"

typedef long long i64;
typedef unsigned long long u64;
typedef unsigned char u8;

#define EMPTYK ((i64)0x8000000000000000LL)
#define TOMBK  ((i64)(0x8000000000000000LL + 1))
#define READY_EVERYWHERE (-2)
#define WAIT_PHYS_MASK ((1LL << 29) - 1)

/* ---- growable i64 vector ---- */
typedef struct { i64 *d; i64 n, cap; } vec;

static void vec_push(vec *v, i64 x) {
    if (v->n == v->cap) {
        v->cap = v->cap ? v->cap * 2 : 8;
        v->d = (i64 *)realloc(v->d, (size_t)v->cap * sizeof(i64));
    }
    v->d[v->n++] = x;
}

static void vec_reset(vec *v) { v->n = 0; }

static void vec_destroy(vec *v) { free(v->d); v->d = 0; v->n = v->cap = 0; }

/* ---- ring deque (power-of-two capacity) ---- */
typedef struct { i64 *d; i64 cap, head, n; } ring;

static void ring_init(ring *r) {
    r->cap = 16;
    r->d = (i64 *)malloc((size_t)r->cap * sizeof(i64));
    r->head = 0;
    r->n = 0;
}

static void ring_grow(ring *r) {
    i64 ncap = r->cap * 2;
    i64 *nd = (i64 *)malloc((size_t)ncap * sizeof(i64));
    for (i64 i = 0; i < r->n; i++) nd[i] = r->d[(r->head + i) & (r->cap - 1)];
    free(r->d);
    r->d = nd;
    r->cap = ncap;
    r->head = 0;
}

static void ring_push(ring *r, i64 x) {
    if (r->n == r->cap) ring_grow(r);
    r->d[(r->head + r->n) & (r->cap - 1)] = x;
    r->n++;
}

static i64 ring_get(const ring *r, i64 i) {
    return r->d[(r->head + i) & (r->cap - 1)];
}

static i64 ring_popleft(ring *r) {
    i64 x = r->d[r->head];
    r->head = (r->head + 1) & (r->cap - 1);
    r->n--;
    return x;
}

static i64 ring_pop(ring *r) {
    r->n--;
    return r->d[(r->head + r->n) & (r->cap - 1)];
}

static i64 ring_last(const ring *r) {
    return r->d[(r->head + r->n - 1) & (r->cap - 1)];
}

static void ring_clear(ring *r) { r->n = 0; r->head = 0; }

static void ring_destroy(ring *r) { free(r->d); r->d = 0; }

/* ---- open-addressing i64 -> i64 hash map ---- */
typedef struct { i64 *keys; i64 *vals; i64 cap, n, used; } imap;

static u64 mix64(u64 z) {
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

static void imap_init(imap *m, i64 cap) {
    m->cap = cap;
    m->n = 0;
    m->used = 0;
    m->keys = (i64 *)malloc((size_t)cap * sizeof(i64));
    m->vals = (i64 *)malloc((size_t)cap * sizeof(i64));
    for (i64 i = 0; i < cap; i++) m->keys[i] = EMPTYK;
}

static void imap_destroy(imap *m) {
    free(m->keys);
    free(m->vals);
    m->keys = m->vals = 0;
}

static void imap_put(imap *m, i64 k, i64 v);

static void imap_rehash(imap *m, i64 ncap) {
    i64 *ok = m->keys, *ov = m->vals, ocap = m->cap;
    imap_init(m, ncap);
    for (i64 i = 0; i < ocap; i++)
        if (ok[i] != EMPTYK && ok[i] != TOMBK) imap_put(m, ok[i], ov[i]);
    free(ok);
    free(ov);
}

static void imap_put(imap *m, i64 k, i64 v) {
    if ((m->used + 1) * 4 >= m->cap * 3)
        imap_rehash(m, m->n * 4 >= m->cap ? m->cap * 2 : m->cap);
    u64 mask = (u64)(m->cap - 1);
    u64 i = mix64((u64)k) & mask;
    i64 tomb = -1;
    for (;;) {
        i64 kk = m->keys[i];
        if (kk == k) { m->vals[i] = v; return; }
        if (kk == EMPTYK) {
            if (tomb >= 0) { m->keys[tomb] = k; m->vals[tomb] = v; }
            else { m->keys[i] = k; m->vals[i] = v; m->used++; }
            m->n++;
            return;
        }
        if (kk == TOMBK && tomb < 0) tomb = (i64)i;
        i = (i + 1) & mask;
    }
}

static int imap_get(const imap *m, i64 k, i64 *out) {
    u64 mask = (u64)(m->cap - 1);
    u64 i = mix64((u64)k) & mask;
    for (;;) {
        i64 kk = m->keys[i];
        if (kk == k) { *out = m->vals[i]; return 1; }
        if (kk == EMPTYK) return 0;
        i = (i + 1) & mask;
    }
}

static int imap_has(const imap *m, i64 k) {
    i64 tmp;
    return imap_get(m, k, &tmp);
}

static int imap_del(imap *m, i64 k, i64 *out) {
    u64 mask = (u64)(m->cap - 1);
    u64 i = mix64((u64)k) & mask;
    for (;;) {
        i64 kk = m->keys[i];
        if (kk == k) {
            if (out) *out = m->vals[i];
            m->keys[i] = TOMBK;
            m->n--;
            return 1;
        }
        if (kk == EMPTYK) return 0;
        i = (i + 1) & mask;
    }
}

/* ---- binary min-heap over unique i64 keys ----
 * Keys carry globally unique ages in their high bits, so the pop
 * sequence of ANY correct min-heap equals heapq's: each pop returns
 * the unique global minimum. */
static void heap_push(vec *h, i64 key) {
    vec_push(h, key);
    i64 i = h->n - 1;
    while (i > 0) {
        i64 p = (i - 1) / 2;
        if (h->d[p] <= h->d[i]) break;
        i64 t = h->d[p]; h->d[p] = h->d[i]; h->d[i] = t;
        i = p;
    }
}

static i64 heap_pop(vec *h) {
    i64 top = h->d[0];
    i64 last = h->d[--h->n];
    if (h->n) {
        h->d[0] = last;
        i64 i = 0;
        for (;;) {
            i64 l = 2 * i + 1, r = l + 1, s = i;
            if (l < h->n && h->d[l] < h->d[s]) s = l;
            if (r < h->n && h->d[r] < h->d[s]) s = r;
            if (s == i) break;
            i64 t = h->d[s]; h->d[s] = h->d[i]; h->d[i] = t;
            i = s;
        }
    }
    return top;
}

/* ---- linear-list LRU set-associative array ----
 * Exact transcription of the Python list-LRU: scan for the key, move
 * it to the back on a hit (front = oldest), evict the front on a miss
 * in a full set.  Set index is key % nsets on the caller-derived key. */
typedef struct {
    i64 *data;
    i64 *cnt;
    i64 nsets, assoc;
    i64 hits, misses, evictions;
} lru;

static void lru_init(lru *c, i64 nsets, i64 assoc) {
    c->nsets = nsets;
    c->assoc = assoc;
    c->data = (i64 *)malloc((size_t)(nsets * assoc) * sizeof(i64));
    c->cnt = (i64 *)calloc((size_t)nsets, sizeof(i64));
    c->hits = c->misses = c->evictions = 0;
}

static void lru_destroy(lru *c) {
    free(c->data);
    free(c->cnt);
    c->data = c->cnt = 0;
}

static int lru_access(lru *c, i64 key) {
    i64 si = key % c->nsets;
    i64 *s = c->data + si * c->assoc;
    i64 n = c->cnt[si];
    for (i64 i = 0; i < n; i++) {
        if (s[i] == key) {
            if (i != n - 1) {
                memmove(s + i, s + i + 1, (size_t)(n - 1 - i) * sizeof(i64));
                s[n - 1] = key;
            }
            c->hits++;
            return 1;
        }
    }
    c->misses++;
    if (n >= c->assoc) {
        memmove(s, s + 1, (size_t)(n - 1) * sizeof(i64));
        s[n - 1] = key;
        c->evictions++;
    } else {
        s[n] = key;
        c->cnt[si] = n + 1;
    }
    return 0;
}

/* ---- physical register file ---- */
typedef struct {
    i64 cap;
    i64 unbounded;
    i64 *free_;           /* stack; pop from the end (Python list.pop) */
    i64 free_n;
    u8 *ready;
    i64 *wait;            /* phys -> waiter-list pool index, or -1 */
    i64 in_use, peak, alloc_count;
} rf;

static void rf_init(rf *f, i64 cap, i64 unbounded) {
    f->cap = cap;
    f->unbounded = unbounded;
    f->free_ = (i64 *)malloc((size_t)cap * sizeof(i64));
    /* Python: _free = [cap-1, ..., 0]; pop() -> 0 first */
    for (i64 i = 0; i < cap; i++) f->free_[i] = cap - 1 - i;
    f->free_n = cap;
    f->ready = (u8 *)calloc((size_t)cap, 1);
    f->wait = (i64 *)malloc((size_t)cap * sizeof(i64));
    for (i64 i = 0; i < cap; i++) f->wait[i] = -1;
    f->in_use = f->peak = f->alloc_count = 0;
}

static void rf_destroy(rf *f) {
    free(f->free_);
    free(f->ready);
    free(f->wait);
    f->free_ = f->wait = 0;
    f->ready = 0;
}

/* ---- per-thread context ---- */
typedef struct {
    i64 cursor, n_records;
    i64 fbu, rbu;                 /* fetch/rename blocked-until */
    i64 wrong_path;
    i64 icount, l2_pending, first_l2_miss;
    i64 gated, flushed;           /* Stall's rename gate, Flush+'s flush */
    i64 committed, frp;           /* frp = fetched_right_path */
    i64 wp_cursor;
    ring fq, infl, rob;
    i64 rob_peak;
    i64 *atcl, *atph, *atrp;      /* rename table columns */
    i64 memo_entry, memo_gen, memo_epoch, memo_cause;
    /* owned trace column copies */
    i64 *co, *cd, *cs1, *cs2, *cpc, *ctk, *cml, *cind, *ctg, *ccomp;
    i64 *cplain, *cpcls, *cdk, *clat, *cns;
} tctx;

/* ---- the resident engine ---- */
typedef struct cloop {
    struct cloop_cfg cfg;

    /* memory hierarchy */
    lru l1, l2, dtlb, itlb, tcl;
    i64 *bus, bus_wait, coalesced;
    imap infl_fills;
    i64 tc_hits, tc_misses;

    /* predictors */
    u8 *bp_table;
    i64 bp_mask, *bp_hist, bp_lookups, bp_correct;
    i64 *ip_targets, ip_mask, ip_lookups, ip_correct;

    /* interconnect */
    ring icn_pending;
    vec icn_when, icn_key, icn_when2, icn_key2, arrived;
    i64 icn_transfers, icn_qwait;

    /* MOB */
    i64 mob_occ, mob_peak, mob_forwards, *mob_pt;
    imap *mob_lines;              /* per thread: line -> count */

    /* issue queues */
    i64 iq_occ[2], iq_peak[2];
    i64 *iq_pt[2];

    /* register files [cluster][kind] */
    rf files[2][2];

    /* shared vec pool (waiter lists + wheel buckets) */
    vec *pool;
    i64 pool_n, pool_cap;
    i64 *pool_free, pool_free_n, pool_free_cap;

    /* event wheels: cycle -> pool bucket index */
    imap ev_map, fill_map;

    /* slot pool */
    i64 cap;
    i64 *free_slots, free_n;
    i64 *p_op, *p_dest, *p_s1, *p_s2, *p_seq, *p_ml, *p_lat, *p_tid;
    i64 *p_age, *p_gen, *p_cl, *p_pref, *p_pd, *p_pp, *p_ppc, *p_pr;
    i64 *p_wc, *p_mob, *p_w0, *p_w1;
    u8 *p_destk, *p_pcls, *p_wp, *p_iss, *p_sq, *p_done, *p_misp, *p_orph;
    u8 *p_l2m;                    /* a right-path load that missed in L2 */

    /* select structures (selected: this cluster's port winners) */
    vec heap[2], deferred[2], defer2[2], passed[2], selected;

    /* threads */
    tctx *t;

    /* global machine scalars */
    i64 cycle, age, commit_rr, last_commit, epoch, finished_count;
    i64 policy_rr, ff_jumps, ff_skipped;
    i64 rename_attempted, fresh_cycle, replay_cycle;

    /* stats */
    struct cloop_stats st;
    i64 *cpt;                     /* committed per thread */

    vec creplays;                 /* (tid << 3) | cause */
    i64 err, erra;
} cloop;

#define CAUSE_IQ 0
#define CAUSE_RF_INT 1
#define CAUSE_RF_FP 2
#define CAUSE_ROB 3
#define CAUSE_MOB 4

/* ---- shared vec pool ---- */
static i64 pool_acquire(cloop *c) {
    if (c->pool_free_n) return c->pool_free[--c->pool_free_n];
    if (c->pool_n == c->pool_cap) {
        c->pool_cap = c->pool_cap ? c->pool_cap * 2 : 16;
        c->pool = (vec *)realloc(c->pool, (size_t)c->pool_cap * sizeof(vec));
    }
    vec *v = &c->pool[c->pool_n];
    v->d = 0; v->n = 0; v->cap = 0;
    return c->pool_n++;
}

static void pool_release(cloop *c, i64 bi) {
    c->pool[bi].n = 0;
    if (c->pool_free_n == c->pool_free_cap) {
        c->pool_free_cap = c->pool_free_cap ? c->pool_free_cap * 2 : 16;
        c->pool_free = (i64 *)realloc(
            c->pool_free, (size_t)c->pool_free_cap * sizeof(i64));
    }
    c->pool_free[c->pool_free_n++] = bi;
}

/* ---- event wheels ---- */
static void wheel_push(cloop *c, imap *m, i64 cycle, i64 val) {
    i64 bi;
    if (!imap_get(m, cycle, &bi)) {
        bi = pool_acquire(c);
        imap_put(m, cycle, bi);
    }
    vec_push(&c->pool[bi], val);
}

static i64 wheel_min(const imap *m) {
    i64 best = -1;
    for (i64 i = 0; i < m->cap; i++) {
        i64 k = m->keys[i];
        if (k != EMPTYK && k != TOMBK && (best < 0 || k < best)) best = k;
    }
    return best;
}

/* ---- register files ---- */
static i64 rf_alloc(cloop *c, rf *f) {
    if (!f->free_n) {
        if (!f->unbounded) { c->err = CLOOP_ERR_RF_EXHAUSTED; return -1; }
        i64 ncap = f->cap * 2;
        f->free_ = (i64 *)realloc(f->free_, (size_t)ncap * sizeof(i64));
        f->ready = (u8 *)realloc(f->ready, (size_t)ncap);
        memset(f->ready + f->cap, 0, (size_t)f->cap);
        f->wait = (i64 *)realloc(f->wait, (size_t)ncap * sizeof(i64));
        for (i64 i = f->cap; i < ncap; i++) f->wait[i] = -1;
        /* Python: _free.extend(range(ncap-1, cap-1, -1)); pop() -> cap */
        for (i64 p = ncap - 1; p >= f->cap; p--) f->free_[f->free_n++] = p;
        f->cap = ncap;
    }
    i64 phys = f->free_[--f->free_n];
    f->ready[phys] = 0;
    f->in_use++;
    f->alloc_count++;
    if (f->in_use > f->peak) f->peak = f->in_use;
    return phys;
}

/* Mirrors RegisterFile.free(): a freed phys must have no live waiters
 * (an empty waiter list is silently discarded, matching the Python
 * pop-then-raise-if-truthy). */
static void free_phys(cloop *c, i64 cl, i64 k, i64 phys) {
    rf *f = &c->files[cl][k];
    f->ready[phys] = 0;
    i64 bi = f->wait[phys];
    if (bi >= 0) {
        if (c->pool[bi].n) { c->err = CLOOP_ERR_LIVE_WAITERS; return; }
        pool_release(c, bi);
        f->wait[phys] = -1;
    }
    f->free_[f->free_n++] = phys;
    f->in_use--;
}

static void add_waiter(cloop *c, i64 cl, i64 k, i64 phys, i64 sl) {
    rf *f = &c->files[cl][k];
    i64 bi = f->wait[phys];
    if (bi < 0) {
        bi = pool_acquire(c);
        f->wait[phys] = bi;
    }
    vec_push(&c->pool[bi], sl);
}

/* Wake every slot waiting on (cl, k, phys): decrement the wait count
 * and push newly-ready valid uops into the home-cluster ready heap, in
 * waiter-list order (== Python's list iteration order). */
static void wake_waiters(cloop *c, i64 cl, i64 k, i64 phys) {
    rf *f = &c->files[cl][k];
    i64 bi = f->wait[phys];
    if (bi < 0) return;
    f->wait[phys] = -1;
    vec *w = &c->pool[bi];
    for (i64 i = 0; i < w->n; i++) {
        i64 sl = w->d[i];
        i64 wc = --c->p_wc[sl];
        if (wc == 0 && !c->p_sq[sl] && !c->p_iss[sl])
            heap_push(&c->heap[c->p_cl[sl]],
                      (c->p_age[sl] << c->cfg.slot_bits) | sl);
    }
    pool_release(c, bi);
}

/* ---- memory hierarchy (transcribes vectorized.make_mem_access) ---- */
static i64 mem_access(cloop *c, i64 line, i64 now, int *l2_miss) {
    *l2_miss = 0;
    if (c->infl_fills.n > 64) {
        imap *m = &c->infl_fills;
        for (i64 i = 0; i < m->cap; i++) {
            i64 k = m->keys[i];
            if (k != EMPTYK && k != TOMBK && m->vals[i] <= now) {
                m->keys[i] = TOMBK;
                m->n--;
            }
        }
    }
    i64 lat = lru_access(&c->dtlb, line / c->cfg.d_lpp)
                  ? c->cfg.l1_lat
                  : c->cfg.l1_lat + c->cfg.d_miss;
    i64 fill_done;
    if (imap_get(&c->infl_fills, line, &fill_done) && fill_done > now) {
        c->coalesced++;
        lru_access(&c->l1, line);
        i64 rem = fill_done - now;
        return rem > lat ? rem : lat;
    }
    if (lru_access(&c->l1, line)) return lat;
    i64 bi;
    if (c->cfg.nbuses == 2) {
        bi = c->bus[0] <= c->bus[1] ? 0 : 1;
    } else {
        bi = 0;
        for (i64 i = 1; i < c->cfg.nbuses; i++)
            if (c->bus[i] < c->bus[bi]) bi = i;
    }
    i64 wait = c->bus[bi] - now;
    if (wait < 0) wait = 0;
    c->bus[bi] = now + wait + 1;
    c->bus_wait += wait;
    lat += wait;
    if (lru_access(&c->l2, line)) {
        lat += c->cfg.l2_lat;
        imap_put(&c->infl_fills, line, now + lat);
        return lat;
    }
    lat += c->cfg.l2_lat + c->cfg.mem_lat;
    imap_put(&c->infl_fills, line, now + lat);
    *l2_miss = 1;
    return lat;
}

/* ---- trace cache (transcribes vectorized.make_tc_lookup) ---- */
static i64 tc_lookup(cloop *c, i64 pc) {
    i64 itlb_lat = lru_access(&c->itlb, pc / c->cfg.i_lpp) ? 0 : c->cfg.i_miss;
    if (lru_access(&c->tcl, pc / c->cfg.tc_line_uops)) {
        c->tc_hits++;
        return itlb_lat;
    }
    c->tc_misses++;
    return c->cfg.tc_fill_lat + itlb_lat;
}

/* ---- branch predictors (transcribe frontend.branch) ---- */
static int bp_update(cloop *c, i64 tid, i64 pc, int taken) {
    i64 idx = (pc ^ (c->bp_hist[tid] << 2)) & c->bp_mask;
    i64 ctr = c->bp_table[idx];
    int predicted = ctr >= 2;
    if (taken) {
        if (ctr < 3) c->bp_table[idx] = (u8)(ctr + 1);
    } else {
        if (ctr > 0) c->bp_table[idx] = (u8)(ctr - 1);
    }
    c->bp_hist[tid] =
        ((c->bp_hist[tid] << 1) | (taken ? 1 : 0)) &
        ((1LL << c->cfg.bp_hist_bits) - 1);
    c->bp_lookups++;
    if (predicted == taken) c->bp_correct++;
    return predicted;
}

static int ip_update(cloop *c, i64 tid, i64 pc, i64 target) {
    i64 idx = (pc ^ (tid << 9)) & c->ip_mask;
    i64 predicted = c->ip_targets[idx];
    c->ip_targets[idx] = target;
    c->ip_lookups++;
    int hit = predicted == target;
    if (hit) c->ip_correct++;
    return hit;
}

/* ---- MOB line tables ---- */
static void mob_remember(cloop *c, i64 tid, i64 line) {
    i64 n = 0;
    imap_get(&c->mob_lines[tid], line, &n);
    imap_put(&c->mob_lines[tid], line, n + 1);
}

static void mob_forget(cloop *c, i64 tid, i64 line) {
    /* lines.get(ml, 0); cnt <= 1 -> pop(ml, None): tolerant of absent */
    i64 n = 0;
    imap_get(&c->mob_lines[tid], line, &n);
    if (n <= 1) imap_del(&c->mob_lines[tid], line, 0);
    else imap_put(&c->mob_lines[tid], line, n - 1);
}

/* ---- slot pool growth (doubling up to 1 << slot_bits slots) ---- */
static i64 pgrow_i64(i64 *old, i64 ocap, i64 ncap, i64 fill, i64 **out) {
    i64 *nd = (i64 *)malloc((size_t)ncap * sizeof(i64));
    memcpy(nd, old, (size_t)ocap * sizeof(i64));
    for (i64 i = ocap; i < ncap; i++) nd[i] = fill;
    free(old);
    *out = nd;
    return 0;
}

static i64 pgrow_u8(u8 *old, i64 ocap, i64 ncap, u8 **out) {
    u8 *nd = (u8 *)calloc((size_t)ncap, 1);
    memcpy(nd, old, (size_t)ocap);
    free(old);
    *out = nd;
    return 0;
}

static int pool_grow(cloop *c) {
    i64 ocap = c->cap, ncap = ocap * 2;
    if (ncap > 1LL << c->cfg.slot_bits) {
        c->err = CLOOP_ERR_POOL_FULL;
        return -1;
    }
    pgrow_i64(c->p_op, ocap, ncap, 0, &c->p_op);
    pgrow_i64(c->p_dest, ocap, ncap, 0, &c->p_dest);
    pgrow_i64(c->p_s1, ocap, ncap, 0, &c->p_s1);
    pgrow_i64(c->p_s2, ocap, ncap, 0, &c->p_s2);
    pgrow_i64(c->p_seq, ocap, ncap, 0, &c->p_seq);
    pgrow_i64(c->p_ml, ocap, ncap, 0, &c->p_ml);
    pgrow_i64(c->p_lat, ocap, ncap, 0, &c->p_lat);
    pgrow_i64(c->p_tid, ocap, ncap, 0, &c->p_tid);
    pgrow_i64(c->p_age, ocap, ncap, -1, &c->p_age);
    pgrow_i64(c->p_gen, ocap, ncap, 0, &c->p_gen);
    pgrow_i64(c->p_cl, ocap, ncap, 0, &c->p_cl);
    pgrow_i64(c->p_pref, ocap, ncap, 0, &c->p_pref);
    pgrow_i64(c->p_pd, ocap, ncap, 0, &c->p_pd);
    pgrow_i64(c->p_pp, ocap, ncap, 0, &c->p_pp);
    pgrow_i64(c->p_ppc, ocap, ncap, 0, &c->p_ppc);
    pgrow_i64(c->p_pr, ocap, ncap, 0, &c->p_pr);
    pgrow_i64(c->p_wc, ocap, ncap, 0, &c->p_wc);
    pgrow_i64(c->p_mob, ocap, ncap, -1, &c->p_mob);
    pgrow_i64(c->p_w0, ocap, ncap, -1, &c->p_w0);
    pgrow_i64(c->p_w1, ocap, ncap, -1, &c->p_w1);
    pgrow_u8(c->p_destk, ocap, ncap, &c->p_destk);
    pgrow_u8(c->p_pcls, ocap, ncap, &c->p_pcls);
    pgrow_u8(c->p_wp, ocap, ncap, &c->p_wp);
    pgrow_u8(c->p_iss, ocap, ncap, &c->p_iss);
    pgrow_u8(c->p_sq, ocap, ncap, &c->p_sq);
    pgrow_u8(c->p_done, ocap, ncap, &c->p_done);
    pgrow_u8(c->p_misp, ocap, ncap, &c->p_misp);
    pgrow_u8(c->p_orph, ocap, ncap, &c->p_orph);
    pgrow_u8(c->p_l2m, ocap, ncap, &c->p_l2m);
    c->free_slots =
        (i64 *)realloc(c->free_slots, (size_t)ncap * sizeof(i64));
    /* free_slots.extend(range(ncap-1, ocap-1, -1)): pop() -> ocap first */
    for (i64 s = ncap - 1; s >= ocap; s--) c->free_slots[c->free_n++] = s;
    c->cap = ncap;
    return 0;
}

/* ---- copy generation (transcribes _soa_copy) ---- */
static i64 make_copy(cloop *c, i64 tid, i64 consumer_sl, i64 arch,
                     i64 target_cluster) {
    tctx *t = &c->t[tid];
    i64 home = t->atcl[arch];
    i64 hphys = t->atph[arch];
    i64 k = arch < c->cfg.num_int ? 0 : 1;
    i64 replica = rf_alloc(c, &c->files[target_cluster][k]);
    if (c->err) return -1;
    t->atrp[arch] = replica;
    i64 sl = c->free_slots[--c->free_n];
    c->p_op[sl] = c->cfg.OP_COPY;
    c->p_dest[sl] = arch;
    c->p_s1[sl] = arch;
    c->p_s2[sl] = -1;
    c->p_seq[sl] = -1;
    c->p_lat[sl] = c->cfg.latency[c->cfg.OP_COPY];
    c->p_tid[sl] = tid;
    c->p_pcls[sl] = (u8)c->cfg.copy_pcls;
    c->p_destk[sl] = (u8)k;
    c->p_wp[sl] = c->p_wp[consumer_sl];
    c->p_cl[sl] = home;
    c->p_pref[sl] = target_cluster;
    c->p_pd[sl] = replica;
    c->p_gen[sl]++;
    c->p_iss[sl] = 0;
    c->p_sq[sl] = 0;
    c->p_done[sl] = 0;
    c->p_misp[sl] = 0;
    c->p_orph[sl] = 0;
    c->p_l2m[sl] = 0;
    i64 w0 = -1, wait = 0;
    if (!c->files[home][k].ready[hphys]) {
        add_waiter(c, home, k, hphys, sl);
        w0 = (home << 30) | (k << 29) | hphys;
        wait = 1;
    }
    c->p_wc[sl] = wait;
    c->p_w0[sl] = w0;
    c->p_w1[sl] = -1;
    i64 age = c->age++;
    c->p_age[sl] = age;
    if (c->iq_occ[home] >= c->cfg.iq_cap[home]) {
        c->err = CLOOP_ERR_IQ_OVERFLOW;
        c->erra = home;
        return -1;
    }
    i64 occ = ++c->iq_occ[home];
    c->iq_pt[home][tid]++;
    if (occ > c->iq_peak[home]) c->iq_peak[home] = occ;
    if (wait == 0) heap_push(&c->heap[home], (age << c->cfg.slot_bits) | sl);
    ring_push(&t->infl, sl);
    t->icount++;
    c->st.copies_renamed++;
    return replica;
}

/* ---- squash (transcribes _soa_squash_younger) ---- */
static void squash_younger(cloop *c, i64 tid, i64 keep_age, int rewind) {
    tctx *t = &c->t[tid];
    i64 min_seq = -1;
    int have_min = 0;
    i64 n_squashed = 0;
    while (t->infl.n && c->p_age[ring_last(&t->infl)] > keep_age) {
        i64 sl = ring_pop(&t->infl);
        c->p_sq[sl] = 1;
        n_squashed++;
        if (!c->p_iss[sl]) {
            i64 cl = c->p_cl[sl];
            c->iq_occ[cl]--;
            c->iq_pt[cl][tid]--;
            t->icount--;
            for (int wi = 0; wi < 2; wi++) {
                i64 w = wi ? c->p_w1[sl] : c->p_w0[sl];
                if (w != -1) {
                    rf *f = &c->files[w >> 30][(w >> 29) & 1];
                    i64 phys = w & WAIT_PHYS_MASK;
                    i64 bi = f->wait[phys];
                    if (bi >= 0) {
                        vec *lst = &c->pool[bi];
                        for (i64 j = 0; j < lst->n; j++) {
                            if (lst->d[j] == sl) {
                                memmove(lst->d + j, lst->d + j + 1,
                                        (size_t)(lst->n - 1 - j) *
                                            sizeof(i64));
                                lst->n--;
                                break;
                            }
                        }
                        if (!lst->n) {
                            pool_release(c, bi);
                            f->wait[phys] = -1;
                        }
                    }
                }
            }
        }
        if (c->p_op[sl] == c->cfg.OP_COPY) {
            i64 dest = c->p_dest[sl];
            i64 phys = c->p_pd[sl];
            if (t->atrp[dest] == phys) t->atrp[dest] = -1;
            i64 k = c->p_destk[sl];
            free_phys(c, c->p_pref[sl], k, phys);
            if (c->err) return;
        } else {
            i64 dest = c->p_dest[sl];
            if (dest != -1) {
                t->atcl[dest] = c->p_ppc[sl];
                t->atph[dest] = c->p_pp[sl];
                t->atrp[dest] = c->p_pr[sl];
                free_phys(c, c->p_cl[sl], c->p_destk[sl], c->p_pd[sl]);
                if (c->err) return;
            }
            i64 opc = c->p_op[sl];
            if (opc == c->cfg.OP_LOAD || opc == c->cfg.OP_STORE) {
                i64 mi = c->p_mob[sl];
                if (mi >= 0) {
                    c->mob_occ--;
                    c->mob_pt[tid]--;
                    c->p_mob[sl] = -1;
                    if (c->mob_occ < 0) {
                        c->err = CLOOP_ERR_MOB_UNDERFLOW;
                        return;
                    }
                    if (mi == 2) mob_forget(c, tid, c->p_ml[sl]);
                    if (c->err) return;
                }
            }
            if (c->p_misp[sl] && !c->p_wp[sl]) t->wrong_path = 0;
            if (!c->p_wp[sl] && c->p_seq[sl] >= 0) {
                i64 sq = c->p_seq[sl];
                if (!have_min || sq < min_seq) min_seq = sq;
                have_min = 1;
            }
        }
        c->free_slots[c->free_n++] = sl;
    }
    c->st.squashed += n_squashed;
    c->epoch++;
    while (t->rob.n && c->p_age[ring_last(&t->rob)] > keep_age)
        ring_pop(&t->rob);
    for (i64 i = 0; i < t->fq.n; i++) {
        i64 entry = ring_get(&t->fq, i);
        if (entry & 1) {
            i64 sl = entry >> 1;
            if (!c->p_wp[sl] && c->p_seq[sl] >= 0) {
                i64 sq = c->p_seq[sl];
                if (!have_min || sq < min_seq) min_seq = sq;
                have_min = 1;
            }
            if (c->p_misp[sl] && !c->p_wp[sl]) t->wrong_path = 0;
            c->free_slots[c->free_n++] = sl;
        } else {
            i64 sq = entry >> 1;
            if (!have_min || sq < min_seq) min_seq = sq;
            have_min = 1;
        }
    }
    ring_clear(&t->fq);
    if (have_min) {
        if (!rewind) { c->err = CLOOP_ERR_RIGHT_PATH_SQUASH; return; }
        if (min_seq < t->cursor) t->cursor = min_seq;
    }
}

/* ---- mispredict resolution (transcribes _soa_resolve_mispredict) ---- */
static void resolve_misp(cloop *c, i64 branch_sl) {
    i64 tid = c->p_tid[branch_sl];
    squash_younger(c, tid, c->p_age[branch_sl], 0);
    if (c->err) return;
    tctx *t = &c->t[tid];
    t->wrong_path = 0;
    i64 nb = c->cycle + c->cfg.misp_pipe;
    if (nb > t->fbu) t->fbu = nb;
    c->st.mispredicts++;
}

/* ---- the L2-miss-reaction axis (transcribes policies.stall and
 * policies.flushplus over Processor.flush_thread) ---- */

/* Flush+'s primitive: squash everything of tid younger than keep_age
 * (-1: its oldest pending L2-missing load; no flush when there is none),
 * rewind the cursor, block its fetch/rename until the miss resolves. */
static void flush_thread(cloop *c, i64 tid, i64 keep_age) {
    tctx *t = &c->t[tid];
    if (keep_age < 0) {
        for (i64 i = 0; i < t->infl.n; i++) {
            i64 sl = ring_get(&t->infl, i);
            if (c->p_l2m[sl] && !c->p_done[sl] &&
                (keep_age < 0 || c->p_age[sl] < keep_age))
                keep_age = c->p_age[sl];
        }
        if (keep_age < 0) return;
    }
    squash_younger(c, tid, keep_age, 1);
    if (c->err) return;
    t->flushed = 1;
    c->st.flushes++;
}

/* on_l2_miss: the right-path load in slot sl just missed in L2 */
static void on_l2_miss(cloop *c, i64 sl) {
    i64 tid = c->p_tid[sl];
    tctx *t = &c->t[tid];
    if (c->cfg.miss_reaction == CLOOP_MISS_STALL) {
        t->gated = 1;
        return;
    }
    /* Flush+: with several missers the earliest continues, the rest are
     * flushed (ties go to the lowest tid, like Python's min) */
    i64 n_missing = 0, earliest = -1, earliest_at = 0;
    for (i64 ti = 0; ti < c->cfg.n_threads; ti++) {
        const tctx *m = &c->t[ti];
        if (m->l2_pending <= 0) continue;
        n_missing++;
        i64 at = m->first_l2_miss >= 0 ? m->first_l2_miss : c->cycle;
        if (earliest < 0 || at < earliest_at) {
            earliest = ti;
            earliest_at = at;
        }
    }
    if (n_missing <= 1) {
        if (!t->flushed) flush_thread(c, tid, c->p_age[sl]);
        return;
    }
    for (i64 ti = 0; ti < c->cfg.n_threads; ti++) {
        tctx *m = &c->t[ti];
        if (m->l2_pending <= 0) continue;
        if (ti == earliest) {
            m->flushed = 0;   /* resume even though its miss is pending */
        } else if (!m->flushed) {
            flush_thread(c, ti, ti == tid ? c->p_age[sl] : -1);
            if (c->err) return;
        }
    }
}

/* on_l2_fill: the last outstanding L2 miss of t was serviced */
static void on_l2_fill(cloop *c, tctx *t) {
    if (c->cfg.miss_reaction == CLOOP_MISS_STALL) t->gated = 0;
    else t->flushed = 0;
}

/* ---- policy admission (transcribes may_dispatch_group loops) ---- */
static int may_dispatch_group(cloop *c, i64 tid, i64 n0, i64 n1) {
    switch (c->cfg.iq_scheme) {
    case CLOOP_IQ_NONE:         /* Icount: admit everything */
        return 1;
    case CLOOP_IQ_CISP: {       /* total-IQ equal share, one call */
        i64 used = c->iq_pt[0][tid] + c->iq_pt[1][tid];
        i64 total_cap = c->cfg.iq_cap[0] + c->cfg.iq_cap[1];
        return used + (n0 + n1) <= total_cap / c->cfg.n_threads;
    }
    case CLOOP_IQ_CSSP: {       /* per-cluster equal IQ share */
        for (i64 cl = 0; cl < 2; cl++) {
            i64 n = cl ? n1 : n0;
            if (!n) continue;
            i64 share = c->cfg.iq_cap[cl] / c->cfg.n_threads;
            if (share < 1) share = 1;
            if (c->iq_pt[cl][tid] + n > share) return 0;
        }
        return 1;
    }
    case CLOOP_IQ_CSPSP: {      /* reserved slice + shared pool */
        for (i64 cl = 0; cl < 2; cl++) {
            i64 n = cl ? n1 : n0;
            if (!n) continue;
            i64 cap = c->cfg.iq_cap[cl];
            i64 reserved = cap / (2 * c->cfg.n_threads);
            if (reserved < 1) reserved = 1;
            i64 pt = c->iq_pt[cl][tid];
            if (pt + n <= reserved) continue;
            i64 shared_cap = cap - reserved * c->cfg.n_threads;
            i64 shared_used = 0;
            for (i64 th = 0; th < c->cfg.n_threads; th++) {
                i64 over = c->iq_pt[cl][th] - reserved;
                if (over > 0) shared_used += over;
            }
            i64 a = pt + n - reserved;
            if (a < 0) a = 0;
            i64 b = pt - reserved;
            if (b < 0) b = 0;
            if (shared_used + (a - b) > shared_cap) return 0;
        }
        return 1;
    }
    default: {                  /* CLOOP_IQ_PC: home cluster only */
        i64 homecl = tid % 2;
        if (n0 && homecl != 0) return 0;
        if (n1 && homecl != 1) return 0;
        return 1;
    }
    }
}

/* ---- one admission attempt for a candidate cluster ----
 * Returns -1 on success or the blocking CAUSE_* otherwise; transcribes
 * the unrolled per-cluster admission check in the vectorized rename
 * phase (alloc_trivial holds for every C policy, so may_alloc_reg
 * never appears). */
static i64 admission_try(cloop *c, i64 cl, i64 tid, i64 s1, i64 s2,
                         int both1, i64 scl1, int both2, i64 scl2,
                         i64 dest) {
    i64 iqn0 = cl == 0 ? 1 : 0;
    i64 iqn1 = cl == 0 ? 0 : 1;
    i64 rint = 0, rfp = 0;
    if (s1 >= 0 && !both1 && scl1 != cl) {
        if (scl1 == 0) iqn0++; else iqn1++;
        if (s1 < c->cfg.num_int) rint++; else rfp++;
    }
    if (s2 >= 0 && s2 != s1 && !both2 && scl2 != cl) {
        if (scl2 == 0) iqn0++; else iqn1++;
        if (s2 < c->cfg.num_int) rint++; else rfp++;
    }
    if (dest >= 0) {
        if (dest < c->cfg.num_int) rint++; else rfp++;
    }
    if (iqn0 && c->cfg.iq_cap[0] - c->iq_occ[0] < iqn0) return CAUSE_IQ;
    if (iqn1 && c->cfg.iq_cap[1] - c->iq_occ[1] < iqn1) return CAUSE_IQ;
    if (!c->cfg.dispatch_trivial && !may_dispatch_group(c, tid, iqn0, iqn1))
        return CAUSE_IQ;
    if (rint && !c->files[cl][0].unbounded &&
        c->files[cl][0].free_n < rint)
        return CAUSE_RF_INT;
    if (rfp && !c->files[cl][1].unbounded && c->files[cl][1].free_n < rfp)
        return CAUSE_RF_FP;
    return -1;
}

/* Run cycles until limit / the stop condition (one cycle when single);
 * returns an enum cloop_exit code. */
long long cloop_run(void *cp, i64 limit, i64 stop_mode, i64 commit_target,
                    i64 use_ff, i64 single) {
    cloop *c = (cloop *)cp;
    const i64 SM = (1LL << c->cfg.slot_bits) - 1;
    const i64 SB = c->cfg.slot_bits;
    int warmup = commit_target >= 0;
    i64 headroom = c->cfg.fetch_width + 3 * c->cfg.rename_width + 4;
    i64 cycle = c->cycle;
    i64 rc = CLOOP_LIMIT;

    while (cycle < limit) {
        /* ---- stop conditions ---- */
        if (warmup) {
            if (c->st.committed >= commit_target) { rc = CLOOP_DONE; break; }
        } else if (stop_mode == 0) {
            if (c->finished_count > 0) { rc = CLOOP_DONE; break; }
        } else if (stop_mode == 1) {
            if (c->finished_count >= c->cfg.n_threads) {
                rc = CLOOP_DONE;
                break;
            }
        }

        /* ---- pool headroom (the only safe grow point) ---- */
        if (c->free_n < headroom) {
            if (pool_grow(c)) return CLOOP_POOL_FULL;
            continue;   /* == Python's return-False + re-enter */
        }

        /* ---- fast-forward candidacy ---- */
        i64 nxt = cycle + 1;
        int candidate = 0;
        i64 squash_before = 0;
        if (use_ff && !imap_has(&c->ev_map, nxt) &&
            !imap_has(&c->fill_map, nxt) && !c->icn_pending.n &&
            !c->icn_when.n) {
            candidate = 1;
            squash_before = c->st.squashed;
        }
        int active = 0;

        cycle = nxt;
        c->cycle = nxt;
        if (c->cfg.miss_reaction == CLOOP_MISS_STALL) {
            /* Stall's on_cycle: account the gated threads */
            for (i64 ti = 0; ti < c->cfg.n_threads; ti++)
                if (c->t[ti].gated) c->st.stalled_thread_cycles++;
        }

        /* ================= commit ================= */
        {
            i64 committed = 0;
            i64 rr = c->commit_rr;
            int progress = 1;
            while (committed < c->cfg.commit_width && progress) {
                progress = 0;
                for (i64 off = 0; off < c->cfg.n_threads; off++) {
                    if (committed >= c->cfg.commit_width) break;
                    i64 ti = (rr + off) % c->cfg.n_threads;
                    tctx *t = &c->t[ti];
                    if (!t->rob.n) continue;
                    i64 head = ring_get(&t->rob, 0);
                    if (!c->p_done[head]) continue;
                    ring_popleft(&t->rob);
                    i64 age = c->p_age[head];
                    while (t->infl.n &&
                           c->p_age[ring_get(&t->infl, 0)] <= age) {
                        i64 csl = ring_popleft(&t->infl);
                        if (csl != head) {
                            if (c->p_done[csl])
                                c->free_slots[c->free_n++] = csl;
                            else
                                c->p_orph[csl] = 1;
                        }
                    }
                    i64 dest = c->p_dest[head];
                    if (dest != -1) {
                        i64 k = c->p_destk[head];
                        i64 pp = c->p_pp[head];
                        if (pp >= 0) {
                            free_phys(c, c->p_ppc[head], k, pp);
                            if (c->err) return CLOOP_ERROR;
                        }
                        i64 pr = c->p_pr[head];
                        if (pr != -1) {
                            free_phys(c, 1 - c->p_ppc[head], k, pr);
                            if (c->err) return CLOOP_ERROR;
                        }
                    }
                    i64 opc = c->p_op[head];
                    if ((opc == c->cfg.OP_LOAD || opc == c->cfg.OP_STORE) &&
                        c->p_mob[head] >= 0) {
                        c->mob_occ--;
                        c->mob_pt[ti]--;
                        int ex_store = c->p_mob[head] == 2;
                        c->p_mob[head] = -1;
                        if (ex_store) mob_forget(c, ti, c->p_ml[head]);
                    }
                    t->committed++;
                    c->cpt[ti]++;
                    if (!t->infl.n && t->cursor >= t->n_records &&
                        !t->fq.n && !t->wrong_path)
                        c->finished_count++;
                    c->free_slots[c->free_n++] = head;
                    committed++;
                    progress = 1;
                }
            }
            c->commit_rr = (rr + 1) % c->cfg.n_threads;
            if (committed) {
                c->epoch += committed;
                c->last_commit = cycle;
                c->st.committed += committed;
                active = 1;
            }
        }

        /* ================= writeback ================= */
        {
            i64 bi;
            if (imap_del(&c->ev_map, cycle, &bi)) {
                for (i64 i = 0; i < c->pool[bi].n; i++) {
                    i64 key = c->pool[bi].d[i];
                    i64 sl = key & SM;
                    if (c->p_sq[sl] || c->p_age[sl] != key >> SB) continue;
                    if (c->p_op[sl] == c->cfg.OP_COPY) {
                        ring_push(&c->icn_pending, key);
                        continue;
                    }
                    c->p_done[sl] = 1;
                    if (c->p_dest[sl] != -1) {
                        i64 cl = c->p_cl[sl];
                        i64 k = c->p_destk[sl];
                        i64 pd = c->p_pd[sl];
                        c->files[cl][k].ready[pd] = 1;
                        wake_waiters(c, cl, k, pd);
                    }
                    if (c->p_misp[sl] && !c->p_wp[sl]) {
                        resolve_misp(c, sl);
                        if (c->err) return CLOOP_ERROR;
                    }
                }
                pool_release(c, bi);
            }
            if (imap_del(&c->fill_map, cycle, &bi)) {
                c->epoch++;   /* fills can unblock admission */
                for (i64 i = 0; i < c->pool[bi].n; i++) {
                    tctx *t = &c->t[c->pool[bi].d[i]];
                    t->l2_pending--;
                    if (t->l2_pending == 0) {
                        t->first_l2_miss = -1;
                        if (c->cfg.miss_reaction != CLOOP_MISS_NONE)
                            on_l2_fill(c, t);
                    }
                }
                pool_release(c, bi);
            }
        }

        /* ================= copy delivery ================= */
        if (c->icn_pending.n || c->icn_when.n) {
            vec_reset(&c->arrived);
            if (c->icn_when.n) {
                vec_reset(&c->icn_when2);
                vec_reset(&c->icn_key2);
                for (i64 i = 0; i < c->icn_when.n; i++) {
                    i64 when = c->icn_when.d[i];
                    i64 key = c->icn_key.d[i];
                    if (when <= cycle) {
                        i64 sl = key & SM;
                        if (!c->p_sq[sl] && c->p_age[sl] == key >> SB)
                            vec_push(&c->arrived, sl);
                    } else {
                        vec_push(&c->icn_when2, when);
                        vec_push(&c->icn_key2, key);
                    }
                }
                vec tmp = c->icn_when;
                c->icn_when = c->icn_when2;
                c->icn_when2 = tmp;
                tmp = c->icn_key;
                c->icn_key = c->icn_key2;
                c->icn_key2 = tmp;
            }
            i64 launched = 0;
            while (c->icn_pending.n && launched < c->cfg.icn_links) {
                i64 key = ring_popleft(&c->icn_pending);
                i64 sl = key & SM;
                if (c->p_sq[sl] || c->p_age[sl] != key >> SB) continue;
                vec_push(&c->icn_when, cycle + c->cfg.icn_lat);
                vec_push(&c->icn_key, key);
                c->icn_transfers++;
                launched++;
            }
            c->icn_qwait += c->icn_pending.n;
            if (c->arrived.n) {
                for (i64 i = 0; i < c->arrived.n; i++) {
                    i64 sl = c->arrived.d[i];
                    c->p_done[sl] = 1;
                    i64 tcl_ = c->p_pref[sl];
                    i64 k = c->p_destk[sl];
                    i64 pd = c->p_pd[sl];
                    c->files[tcl_][k].ready[pd] = 1;
                    wake_waiters(c, tcl_, k, pd);
                    c->st.copies_arrived++;
                    if (c->p_orph[sl]) c->free_slots[c->free_n++] = sl;
                }
                active = 1;
            }
        }

        /* ================= issue ================= */
        i64 bits[2];
        for (int ci = 0; ci < 2; ci++) {
            int b0 = 0, b1 = 0, b2 = 0;
            i64 n_issued = 0;
            vec *heap = &c->heap[ci];
            vec *def = &c->deferred[ci];
            vec *pass = &c->passed[ci];
            vec *sel = &c->selected;
            vec_reset(pass);
            vec_reset(sel);
            i64 di = 0, dn = def->n;
            if (heap->n || dn) {
                i64 scanned = 0;
                i64 max_scan = c->cfg.max_scan[ci];
                while (scanned < max_scan) {
                    i64 key, sl;
                    if (di < dn) {
                        i64 dkey = def->d[di];
                        i64 dsl = dkey & SM;
                        if (c->p_sq[dsl] || c->p_iss[dsl] ||
                            c->p_age[dsl] != dkey >> SB) {
                            di++;
                            continue;
                        }
                        if (heap->n && heap->d[0] < dkey) {
                            key = heap_pop(heap);
                            sl = key & SM;
                            if (c->p_sq[sl] || c->p_iss[sl] ||
                                c->p_age[sl] != key >> SB)
                                continue;
                        } else {
                            di++;
                            key = dkey;
                            sl = dsl;
                        }
                    } else if (heap->n) {
                        key = heap_pop(heap);
                        sl = key & SM;
                        if (c->p_sq[sl] || c->p_iss[sl] ||
                            c->p_age[sl] != key >> SB)
                            continue;
                    } else {
                        break;
                    }
                    scanned++;
                    i64 pcls = c->p_pcls[sl];
                    if (pcls == 2) {
                        if (b2) { vec_push(pass, key); continue; }
                        b2 = 1;
                    } else if (!b0) {
                        b0 = 1;
                    } else if (!b1) {
                        b1 = 1;
                    } else if (pcls == 0 && !b2) {
                        b2 = 1;
                    } else {
                        vec_push(pass, key);
                        continue;
                    }
                    vec_push(sel, key);   /* port claimed */
                }
                if (di || pass->n) {
                    vec *d2 = &c->defer2[ci];
                    vec_reset(d2);
                    for (i64 i = 0; i < pass->n; i++)
                        vec_push(d2, pass->d[i]);
                    for (i64 i = di; i < dn; i++) vec_push(d2, def->d[i]);
                    vec tmp = *def;
                    *def = *d2;
                    *d2 = tmp;
                }
            }
            /* two-phase _start_execution: a Flush+ flush fired by one
             * winner's L2 miss may squash a later winner this cycle */
            for (i64 i = 0; i < sel->n; i++) {
                i64 key = sel->d[i];
                i64 sl = key & SM;
                if (c->p_sq[sl]) continue;
                n_issued++;
                c->p_iss[sl] = 1;
                i64 tid = c->p_tid[sl];
                c->iq_pt[ci][tid]--;
                tctx *t = &c->t[tid];
                t->icount--;
                i64 opc = c->p_op[sl];
                i64 lat = c->p_lat[sl];
                if (opc == c->cfg.OP_LOAD) {
                    i64 ml = c->p_ml[sl];
                    if (imap_has(&c->mob_lines[tid], ml)) {
                        c->mob_forwards++;
                        lat += 1;
                    } else {
                        int l2m;
                        lat += mem_access(c, ml, cycle, &l2m);
                        if (l2m && !c->p_wp[sl]) {
                            c->p_l2m[sl] = 1;
                            if (t->l2_pending == 0) t->first_l2_miss = cycle;
                            t->l2_pending++;
                            wheel_push(c, &c->fill_map, cycle + lat, tid);
                            if (c->cfg.miss_reaction != CLOOP_MISS_NONE) {
                                on_l2_miss(c, sl);
                                if (c->err) return CLOOP_ERROR;
                            }
                        }
                    }
                } else if (opc == c->cfg.OP_STORE) {
                    int l2m;
                    i64 ml = c->p_ml[sl];
                    mem_access(c, ml, cycle, &l2m);
                    c->p_mob[sl] = 2;
                    mob_remember(c, tid, ml);
                }
                wheel_push(c, &c->ev_map, cycle + lat, key);
            }
            if (n_issued) {
                c->iq_occ[ci] -= n_issued;
                c->epoch += n_issued;
                c->st.issued += n_issued;
                c->st.issue_cycles++;
                active = 1;
            }
            bits[ci] = (b0 ? 1 : 0) | (b1 ? 2 : 0) | (b2 ? 4 : 0);
        }

        /* workload-imbalance probe (Figure 5), against final port state */
        {
            int probed = 0;
            for (int ci = 0; ci < 2; ci++) {
                vec *pass = &c->passed[ci];
                if (!pass->n) continue;
                i64 ob = bits[1 - ci];
                i64 seen = 0;
                for (i64 i = 0; i < pass->n; i++) {
                    i64 sl = pass->d[i] & SM;
                    if (c->p_sq[sl]) continue;
                    i64 pcls = c->p_pcls[sl];
                    i64 bit = 1LL << pcls;
                    if (seen & bit) continue;
                    seen |= bit;
                    int has_free;
                    if (pcls == 2) has_free = !(ob & 4);
                    else if (!(ob & 1) || !(ob & 2)) has_free = 1;
                    else has_free = pcls == 0 && !(ob & 4);
                    c->st.imbalance[pcls][has_free ? 1 : 0]++;
                    probed = 1;
                }
            }
            if (probed) {
                c->st.imbalance_cycles++;
                active = 1;
            }
        }

        /* ================= rename ================= */
        {
            i64 excluded = 0;
            i64 sel_left = c->cfg.n_threads;
            int first_attempt = 1;
            i64 epoch = c->epoch;
            for (;;) {
                /* selection (inlined IcountPolicy.rename_select) */
                i64 best = -1, best_ic = 0;
                i64 prr = c->policy_rr;
                for (i64 off = 0; off < c->cfg.n_threads; off++) {
                    i64 ti = (prr + off) % c->cfg.n_threads;
                    if (excluded & (1LL << ti)) continue;
                    tctx *tt = &c->t[ti];
                    if (tt->fq.n && !tt->flushed && !tt->gated &&
                        tt->rbu <= cycle) {
                        if (best < 0 || tt->icount < best_ic) {
                            best = ti;
                            best_ic = tt->icount;
                        }
                    }
                }
                if (best >= 0) c->policy_rr = (best + 1) % c->cfg.n_threads;
                if (first_attempt) {
                    first_attempt = 0;
                    c->rename_attempted = best >= 0;
                }
                if (best < 0) break;
                i64 tid = best;
                tctx *t = &c->t[tid];
                i64 renamed_n = 0;
                while (renamed_n < c->cfg.rename_width && t->fq.n) {
                    i64 entry = ring_get(&t->fq, 0);
                    i64 sl, genm;
                    if (entry & 1) {
                        sl = entry >> 1;
                        genm = c->p_gen[sl];
                    } else {
                        sl = -1;
                        genm = -1;
                    }
                    if (c->cfg.memo_on && t->memo_entry == entry &&
                        t->memo_gen == genm && t->memo_epoch == epoch) {
                        /* inlined _replay_rename_stall */
                        i64 primary = t->memo_cause;
                        if (c->replay_cycle != cycle) {
                            c->replay_cycle = cycle;
                            c->creplays.n = 0;
                        }
                        vec_push(&c->creplays, (tid << 3) | primary);
                        c->st.rename_stall[primary]++;
                        if (primary == CAUSE_IQ) {
                            c->st.iq_stalls++;
                            c->st.iq_block_stalls++;
                        } else if (primary == CAUSE_RF_INT ||
                                   primary == CAUSE_RF_FP) {
                            c->st.reg_stall_events[primary - CAUSE_RF_INT]++;
                        }
                        break;
                    }
                    /* non-memoized attempt: no Tier B jump this cycle */
                    c->fresh_cycle = cycle;
                    if (!c->cfg.rob_unbounded && t->rob.n >= c->cfg.rob_cap) {
                        c->st.rename_stall[CAUSE_ROB]++;
                        if (c->cfg.memo_on) {
                            t->memo_entry = entry;
                            t->memo_gen = genm;
                            t->memo_epoch = epoch;
                            t->memo_cause = CAUSE_ROB;
                        }
                        break;
                    }
                    i64 opc, s1, s2, dest, cur_r = -1;
                    if (sl >= 0) {
                        opc = c->p_op[sl];
                        s1 = c->p_s1[sl];
                        s2 = c->p_s2[sl];
                        dest = c->p_dest[sl];
                    } else {
                        cur_r = entry >> 1;
                        opc = t->co[cur_r];
                        s1 = t->cs1[cur_r];
                        s2 = t->cs2[cur_r];
                        dest = t->cd[cur_r];
                    }
                    if ((opc == c->cfg.OP_LOAD || opc == c->cfg.OP_STORE) &&
                        c->mob_occ >= c->cfg.mob_cap) {
                        c->st.rename_stall[CAUSE_MOB]++;
                        if (c->cfg.memo_on) {
                            t->memo_entry = entry;
                            t->memo_gen = genm;
                            t->memo_epoch = epoch;
                            t->memo_cause = CAUSE_MOB;
                        }
                        break;
                    }

                    /* single-pass source resolution */
                    i64 ph1 = 0, scl1 = 0, rep1 = 0;
                    i64 ph2 = 0, scl2 = 0, rep2 = 0;
                    int both1 = 0, both2 = 0;
                    if (s1 >= 0) {
                        ph1 = t->atph[s1];
                        scl1 = t->atcl[s1];
                        rep1 = t->atrp[s1];
                        both1 = ph1 == READY_EVERYWHERE || rep1 != -1;
                        if (s2 >= 0) {
                            ph2 = t->atph[s2];
                            scl2 = t->atcl[s2];
                            rep2 = t->atrp[s2];
                            both2 = ph2 == READY_EVERYWHERE || rep2 != -1;
                        }
                    }

                    /* steering (inlined Steering.preferred_cluster) */
                    i64 preferred;
                    if (c->cfg.forced_mode) {
                        preferred = tid % 2;
                    } else {
                        i64 rn_c0 = 0, rn_c1 = 0;
                        if (s1 >= 0) {
                            if (both1) { rn_c0++; rn_c1++; }
                            else if (scl1 == 0) rn_c0++;
                            else rn_c1++;
                            if (s2 >= 0) {
                                if (both2) { rn_c0++; rn_c1++; }
                                else if (scl2 == 0) rn_c0++;
                                else rn_c1++;
                            }
                        }
                        i64 occ0 = c->iq_occ[0], occ1 = c->iq_occ[1];
                        if (rn_c0 != rn_c1) preferred = rn_c0 > rn_c1 ? 0 : 1;
                        else preferred = occ0 <= occ1 ? 0 : 1;
                        i64 thr = c->cfg.imb_threshold;
                        if (preferred == 0) {
                            if (occ0 - occ1 > thr) preferred = 1;
                        } else if (occ1 - occ0 > thr) {
                            preferred = 0;
                        }
                    }

                    /* admission: preferred first, then (unless steering
                     * forces one cluster) the other */
                    i64 first_cause = admission_try(c, preferred, tid, s1,
                                                    s2, both1, scl1, both2,
                                                    scl2, dest);
                    i64 chosen;
                    if (first_cause < 0) {
                        chosen = preferred;
                    } else if (c->cfg.forced_mode) {
                        chosen = -1;
                    } else {
                        i64 cause2 = admission_try(c, 1 - preferred, tid,
                                                   s1, s2, both1, scl1,
                                                   both2, scl2, dest);
                        chosen = cause2 < 0 ? 1 - preferred : -1;
                    }

                    /* Figure 4: preferred cluster denied on IQ grounds */
                    if (first_cause == CAUSE_IQ) c->st.iq_stalls++;

                    if (chosen == -1) {
                        i64 primary = first_cause;
                        c->st.rename_stall[primary]++;
                        if (primary == CAUSE_IQ) c->st.iq_block_stalls++;
                        else if (primary == CAUSE_RF_INT ||
                                 primary == CAUSE_RF_FP)
                            c->st.reg_stall_events[primary - CAUSE_RF_INT]++;
                        if (c->cfg.memo_on) {
                            t->memo_entry = entry;
                            t->memo_gen = genm;
                            t->memo_epoch = epoch;
                            t->memo_cause = primary;
                        }
                        break;
                    }

                    /* inlined _dispatch_uop (slots) */
                    if (sl < 0) {
                        sl = c->free_slots[--c->free_n];
                        c->p_op[sl] = opc;
                        c->p_dest[sl] = dest;
                        c->p_s1[sl] = s1;
                        c->p_s2[sl] = s2;
                        c->p_seq[sl] = cur_r;
                        c->p_ml[sl] = t->cml[cur_r];
                        c->p_lat[sl] = t->clat[cur_r];
                        c->p_tid[sl] = tid;
                        c->p_pcls[sl] = (u8)t->cpcls[cur_r];
                        c->p_destk[sl] = (u8)t->cdk[cur_r];
                        c->p_wp[sl] = 0;
                        c->p_gen[sl]++;
                        c->p_iss[sl] = 0;
                        c->p_sq[sl] = 0;
                        c->p_done[sl] = 0;
                        c->p_misp[sl] = 0;
                        c->p_orph[sl] = 0;
                        c->p_l2m[sl] = 0;
                    }
                    i64 wait = 0, w0 = -1, w1 = -1;
                    if (s1 >= 0) {
                        i64 phys1 =
                            (ph1 == READY_EVERYWHERE || scl1 == chosen)
                                ? ph1
                                : rep1;
                        if (phys1 == -1) {
                            phys1 = make_copy(c, tid, sl, s1, chosen);
                            if (c->err) return CLOOP_ERROR;
                        }
                        if (phys1 != READY_EVERYWHERE) {
                            i64 k = s1 < c->cfg.num_int ? 0 : 1;
                            if (!c->files[chosen][k].ready[phys1]) {
                                add_waiter(c, chosen, k, phys1, sl);
                                w0 = (chosen << 30) | (k << 29) | phys1;
                                wait = 1;
                            }
                        }
                        if (s2 >= 0) {
                            i64 phys2;
                            if (s2 != s1) {
                                phys2 = (ph2 == READY_EVERYWHERE ||
                                         scl2 == chosen)
                                            ? ph2
                                            : rep2;
                                if (phys2 == -1) {
                                    phys2 =
                                        make_copy(c, tid, sl, s2, chosen);
                                    if (c->err) return CLOOP_ERROR;
                                }
                            } else {
                                phys2 = phys1;
                            }
                            if (phys2 != READY_EVERYWHERE) {
                                i64 k = s2 < c->cfg.num_int ? 0 : 1;
                                if (!c->files[chosen][k].ready[phys2]) {
                                    add_waiter(c, chosen, k, phys2, sl);
                                    i64 pk = (chosen << 30) | (k << 29) |
                                             phys2;
                                    if (wait) w1 = pk;
                                    else w0 = pk;
                                    wait++;
                                }
                            }
                        }
                    }
                    c->p_wc[sl] = wait;
                    c->p_w0[sl] = w0;
                    c->p_w1[sl] = w1;
                    c->p_cl[sl] = chosen;

                    if (dest >= 0) {
                        i64 k = c->p_destk[sl];
                        i64 phys = rf_alloc(c, &c->files[chosen][k]);
                        if (c->err) return CLOOP_ERROR;
                        c->p_pd[sl] = phys;
                        c->p_pp[sl] = t->atph[dest];
                        c->p_ppc[sl] = t->atcl[dest];
                        c->p_pr[sl] = t->atrp[dest];
                        t->atcl[dest] = chosen;
                        t->atph[dest] = phys;
                        t->atrp[dest] = -1;
                    }

                    i64 age = c->age++;
                    c->p_age[sl] = age;
                    ring_push(&t->rob, sl);
                    if (t->rob.n > t->rob_peak) t->rob_peak = t->rob.n;
                    if (opc == c->cfg.OP_LOAD || opc == c->cfg.OP_STORE) {
                        i64 occ = ++c->mob_occ;
                        c->mob_pt[tid]++;
                        c->p_mob[sl] = 1;
                        if (occ > c->mob_peak) c->mob_peak = occ;
                    }
                    {
                        i64 occ = ++c->iq_occ[chosen];
                        c->iq_pt[chosen][tid]++;
                        if (occ > c->iq_peak[chosen])
                            c->iq_peak[chosen] = occ;
                    }
                    if (wait == 0)
                        heap_push(&c->heap[chosen], (age << SB) | sl);
                    ring_push(&t->infl, sl);
                    t->icount++;
                    epoch++;   /* ROB/MOB/IQ/registers all moved */
                    c->st.renamed++;
                    if (c->p_wp[sl]) c->st.wp_renamed++;
                    ring_popleft(&t->fq);
                    renamed_n++;
                }
                if (renamed_n) {
                    active = 1;
                    break;
                }
                /* structurally blocked; give the slot away */
                sel_left--;
                if (sel_left == 0) break;
                excluded |= 1LL << tid;
            }
            c->epoch = epoch;
        }

        /* ================= fetch ================= */
        {
            i64 best = -1, best_len = -1;
            for (i64 ti = 0; ti < c->cfg.n_threads; ti++) {
                tctx *tt = &c->t[ti];
                if (tt->fbu <= cycle && !tt->flushed) {
                    i64 ql = tt->fq.n;
                    if (ql < c->cfg.fq_cap &&
                        (tt->wrong_path || tt->cursor < tt->n_records)) {
                        if (best < 0 || ql < best_len) {
                            best = ti;
                            best_len = ql;
                        }
                    }
                }
            }
            if (best >= 0) {
                tctx *t = &c->t[best];
                int wrong = (int)t->wrong_path;
                i64 first_pc;
                if (wrong)
                    first_pc =
                        t->cpc[(t->wp_cursor * 7919) % t->n_records] |
                        (1LL << 40);
                else
                    first_pc = t->cpc[t->cursor];
                i64 stall = tc_lookup(c, first_pc);
                active = 1;   /* the TC lookup moved hits/misses */
                if (stall > 0) {
                    t->fbu = cycle + stall;
                } else {
                    i64 fetched = 0;
                    if (wrong) {
                        if (c->cfg.model_wp) {
                            while (fetched < c->cfg.fetch_width &&
                                   t->fq.n < c->cfg.fq_cap) {
                                i64 i = (t->wp_cursor * 7919) %
                                        t->n_records;
                                t->wp_cursor++;
                                i64 sl = c->free_slots[--c->free_n];
                                c->p_op[sl] = t->co[i];
                                c->p_dest[sl] = t->cd[i];
                                c->p_s1[sl] = t->cs1[i];
                                c->p_s2[sl] = t->cs2[i];
                                c->p_seq[sl] = -1;
                                c->p_ml[sl] = t->cml[i];
                                c->p_lat[sl] = t->clat[i];
                                c->p_tid[sl] = best;
                                c->p_pcls[sl] = (u8)t->cpcls[i];
                                c->p_destk[sl] = (u8)t->cdk[i];
                                c->p_wp[sl] = 1;
                                c->p_age[sl] = -1;
                                c->p_gen[sl]++;
                                c->p_iss[sl] = 0;
                                c->p_sq[sl] = 0;
                                c->p_done[sl] = 0;
                                c->p_misp[sl] = 0;
                                c->p_orph[sl] = 0;
                                c->p_l2m[sl] = 0;
                                ring_push(&t->fq, (sl << 1) | 1);
                                fetched++;
                            }
                            c->st.wp_fetched += fetched;
                        }
                    } else {
                        i64 cur = t->cursor;
                        i64 nrec = t->n_records;
                        while (fetched < c->cfg.fetch_width &&
                               t->fq.n < c->cfg.fq_cap) {
                            if (cur >= nrec) break;
                            if (t->cplain[cur]) {
                                /* whole plain run as packed indices */
                                i64 end = cur + c->cfg.fetch_width - fetched;
                                i64 lim = cur + c->cfg.fq_cap - t->fq.n;
                                if (lim < end) end = lim;
                                lim = t->cns[cur];
                                if (lim < end) end = lim;
                                if (nrec < end) end = nrec;
                                for (i64 j = cur; j < end; j++)
                                    ring_push(&t->fq, j << 1);
                                fetched += end - cur;
                                cur = end;
                                continue;
                            }
                            /* slow path: branch / indirect / complex */
                            i64 sl = c->free_slots[--c->free_n];
                            i64 opcl = t->co[cur];
                            c->p_op[sl] = opcl;
                            c->p_dest[sl] = t->cd[cur];
                            c->p_s1[sl] = t->cs1[cur];
                            c->p_s2[sl] = t->cs2[cur];
                            c->p_seq[sl] = cur;
                            c->p_ml[sl] = t->cml[cur];
                            c->p_lat[sl] = t->clat[cur];
                            c->p_tid[sl] = best;
                            c->p_pcls[sl] = (u8)t->cpcls[cur];
                            c->p_destk[sl] = (u8)t->cdk[cur];
                            c->p_wp[sl] = 0;
                            c->p_age[sl] = -1;
                            c->p_gen[sl]++;
                            c->p_iss[sl] = 0;
                            c->p_sq[sl] = 0;
                            c->p_done[sl] = 0;
                            c->p_misp[sl] = 0;
                            c->p_orph[sl] = 0;
                            c->p_l2m[sl] = 0;
                            i64 ind = t->cind[cur];
                            i64 comp = t->ccomp[cur];
                            i64 pc = t->cpc[cur];
                            i64 tk = t->ctk[cur];
                            i64 tg = t->ctg[cur];
                            cur++;
                            ring_push(&t->fq, (sl << 1) | 1);
                            fetched++;
                            if (opcl == c->cfg.OP_BRANCH) {
                                if (ind) {
                                    if (!ip_update(c, best, pc, tg)) {
                                        c->p_misp[sl] = 1;
                                        t->wrong_path = 1;
                                        break;
                                    }
                                } else {
                                    if (bp_update(c, best, pc,
                                                  (int)tk) != (int)tk) {
                                        c->p_misp[sl] = 1;
                                        t->wrong_path = 1;
                                        break;
                                    }
                                }
                            } else if (comp) {
                                t->fbu = cycle + c->cfg.mrom_lat;
                                break;
                            }
                        }
                        t->cursor = cur;
                        t->frp += fetched;
                    }
                    c->st.fetched += fetched;
                }
            }
        }

        /* ================= end of cycle ================= */
        c->st.cycles++;
        if (cycle - c->last_commit > c->cfg.watchdog) {
            c->cycle = cycle;
            return CLOOP_WATCHDOG;
        }

        /* ---- fast-forward jump (step_fast post-check) ---- */
        if (candidate && !active && c->st.squashed == squash_before) {
            int do_jump = 0, tier_b = 0;
            if (c->rename_attempted) {
                /* Tier B: every rename attempt was a memoized replay */
                if (c->fresh_cycle != cycle && c->replay_cycle == cycle) {
                    do_jump = 1;
                    tier_b = 1;
                }
            } else {
                do_jump = 1;
            }
            if (do_jump) {
                i64 h = limit;
                i64 m = wheel_min(&c->ev_map);
                if (m >= 0 && m < h) h = m;
                m = wheel_min(&c->fill_map);
                if (m >= 0 && m < h) h = m;
                for (i64 ti = 0; ti < c->cfg.n_threads; ti++) {
                    i64 b = c->t[ti].fbu;
                    if (cycle < b && b < h) h = b;
                    b = c->t[ti].rbu;
                    if (cycle < b && b < h) h = b;
                }
                i64 wd = c->last_commit + c->cfg.watchdog + 1;
                if (wd < h) h = wd;
                i64 target = h - 1;
                if (target > cycle) {
                    i64 skipped = target - cycle;
                    cycle = target;
                    c->cycle = target;
                    c->st.cycles += skipped;
                    c->commit_rr =
                        (c->commit_rr + skipped) % c->cfg.n_threads;
                    if (c->cfg.miss_reaction == CLOOP_MISS_STALL) {
                        /* Stall's ff_cycles: gates cannot move inside
                         * the window, so the account is gated x window */
                        i64 gated = 0;
                        for (i64 ti = 0; ti < c->cfg.n_threads; ti++)
                            gated += c->t[ti].gated ? 1 : 0;
                        c->st.stalled_thread_cycles += gated * skipped;
                    }
                    if (tier_b) {
                        for (i64 i = 0; i < c->creplays.n; i++) {
                            i64 pr = c->creplays.d[i] & 7;
                            c->st.rename_stall[pr] += skipped;
                            if (pr == CAUSE_IQ) {
                                c->st.iq_stalls += skipped;
                                c->st.iq_block_stalls += skipped;
                            } else if (pr == CAUSE_RF_INT ||
                                       pr == CAUSE_RF_FP) {
                                c->st.reg_stall_events[pr - CAUSE_RF_INT] +=
                                    skipped;
                            }
                        }
                    }
                    c->ff_jumps++;
                    c->ff_skipped += skipped;
                }
            }
        }

        if (warmup && c->finished_count > 0) { rc = CLOOP_DONE; break; }
        if (single) break;
    }
    c->cycle = cycle;
    return rc;
}

void *cloop_new(const struct cloop_cfg *cfg) {
    cloop *c = (cloop *)calloc(1, sizeof(cloop));
    c->cfg = *cfg;
    c->policy_rr = cfg->policy_rr_start;
    const i64 pool_cap = cfg->pool_cap;

    lru_init(&c->l1, cfg->l1_sets, cfg->l1_ways);
    lru_init(&c->l2, cfg->l2_sets, cfg->l2_ways);
    lru_init(&c->dtlb, cfg->dtlb_sets, cfg->dtlb_ways);
    lru_init(&c->itlb, cfg->itlb_sets, cfg->itlb_ways);
    lru_init(&c->tcl, cfg->tc_sets, cfg->tc_ways);
    c->bus = (i64 *)calloc((size_t)cfg->nbuses, sizeof(i64));
    imap_init(&c->infl_fills, 128);

    c->bp_table = (u8 *)malloc((size_t)cfg->bp_entries);
    memset(c->bp_table, 2, (size_t)cfg->bp_entries);
    c->bp_mask = cfg->bp_entries - 1;
    c->bp_hist = (i64 *)calloc((size_t)cfg->n_threads, sizeof(i64));
    c->ip_targets = (i64 *)malloc((size_t)cfg->ip_entries * sizeof(i64));
    for (i64 i = 0; i < cfg->ip_entries; i++) c->ip_targets[i] = -1;
    c->ip_mask = cfg->ip_entries - 1;

    ring_init(&c->icn_pending);

    c->mob_pt = (i64 *)calloc((size_t)cfg->n_threads, sizeof(i64));
    c->mob_lines = (imap *)calloc((size_t)cfg->n_threads, sizeof(imap));
    for (i64 i = 0; i < cfg->n_threads; i++)
        imap_init(&c->mob_lines[i], 32);

    c->iq_pt[0] = (i64 *)calloc((size_t)cfg->n_threads, sizeof(i64));
    c->iq_pt[1] = (i64 *)calloc((size_t)cfg->n_threads, sizeof(i64));

    for (int cl = 0; cl < 2; cl++)
        for (int k = 0; k < 2; k++)
            rf_init(&c->files[cl][k], cfg->rf_cap[cl][k], cfg->rf_unbounded);

    imap_init(&c->ev_map, 64);
    imap_init(&c->fill_map, 64);

    c->cap = pool_cap;
    c->free_slots = (i64 *)malloc((size_t)pool_cap * sizeof(i64));
    for (i64 i = 0; i < pool_cap; i++)
        c->free_slots[i] = pool_cap - 1 - i;   /* pop() -> 0 first */
    c->free_n = pool_cap;
    c->p_op = (i64 *)calloc((size_t)pool_cap, sizeof(i64));
    c->p_dest = (i64 *)calloc((size_t)pool_cap, sizeof(i64));
    c->p_s1 = (i64 *)calloc((size_t)pool_cap, sizeof(i64));
    c->p_s2 = (i64 *)calloc((size_t)pool_cap, sizeof(i64));
    c->p_seq = (i64 *)calloc((size_t)pool_cap, sizeof(i64));
    c->p_ml = (i64 *)calloc((size_t)pool_cap, sizeof(i64));
    c->p_lat = (i64 *)calloc((size_t)pool_cap, sizeof(i64));
    c->p_tid = (i64 *)calloc((size_t)pool_cap, sizeof(i64));
    c->p_age = (i64 *)malloc((size_t)pool_cap * sizeof(i64));
    c->p_gen = (i64 *)calloc((size_t)pool_cap, sizeof(i64));
    c->p_cl = (i64 *)calloc((size_t)pool_cap, sizeof(i64));
    c->p_pref = (i64 *)calloc((size_t)pool_cap, sizeof(i64));
    c->p_pd = (i64 *)calloc((size_t)pool_cap, sizeof(i64));
    c->p_pp = (i64 *)calloc((size_t)pool_cap, sizeof(i64));
    c->p_ppc = (i64 *)calloc((size_t)pool_cap, sizeof(i64));
    c->p_pr = (i64 *)calloc((size_t)pool_cap, sizeof(i64));
    c->p_wc = (i64 *)calloc((size_t)pool_cap, sizeof(i64));
    c->p_mob = (i64 *)malloc((size_t)pool_cap * sizeof(i64));
    c->p_w0 = (i64 *)malloc((size_t)pool_cap * sizeof(i64));
    c->p_w1 = (i64 *)malloc((size_t)pool_cap * sizeof(i64));
    for (i64 i = 0; i < pool_cap; i++) {
        c->p_age[i] = -1;
        c->p_mob[i] = -1;
        c->p_w0[i] = -1;
        c->p_w1[i] = -1;
    }
    c->p_destk = (u8 *)calloc((size_t)pool_cap, 1);
    c->p_pcls = (u8 *)calloc((size_t)pool_cap, 1);
    c->p_wp = (u8 *)calloc((size_t)pool_cap, 1);
    c->p_iss = (u8 *)calloc((size_t)pool_cap, 1);
    c->p_sq = (u8 *)calloc((size_t)pool_cap, 1);
    c->p_done = (u8 *)calloc((size_t)pool_cap, 1);
    c->p_misp = (u8 *)calloc((size_t)pool_cap, 1);
    c->p_orph = (u8 *)calloc((size_t)pool_cap, 1);
    c->p_l2m = (u8 *)calloc((size_t)pool_cap, 1);

    c->t = (tctx *)calloc((size_t)cfg->n_threads, sizeof(tctx));
    for (i64 i = 0; i < cfg->n_threads; i++) {
        tctx *t = &c->t[i];
        ring_init(&t->fq);
        ring_init(&t->infl);
        ring_init(&t->rob);
        t->wp_cursor = 1;
        t->first_l2_miss = -1;
        t->memo_entry = -1;
        t->memo_gen = -1;
        t->memo_epoch = -1;
        t->atcl = (i64 *)malloc((size_t)cfg->num_arch * sizeof(i64));
        t->atph = (i64 *)malloc((size_t)cfg->num_arch * sizeof(i64));
        t->atrp = (i64 *)malloc((size_t)cfg->num_arch * sizeof(i64));
        for (i64 a = 0; a < cfg->num_arch; a++) {
            t->atcl[a] = -1;
            t->atph[a] = READY_EVERYWHERE;
            t->atrp[a] = -1;
        }
    }

    c->cpt = (i64 *)calloc((size_t)cfg->n_threads, sizeof(i64));
    return c;
}

static i64 *copy_col(const i64 *src, i64 n) {
    i64 *d = (i64 *)malloc((size_t)(n > 0 ? n : 1) * sizeof(i64));
    memcpy(d, src, (size_t)n * sizeof(i64));
    return d;
}

void cloop_set_trace(void *cp, i64 tid, i64 n, const i64 *co,
                     const i64 *cd, const i64 *cs1, const i64 *cs2,
                     const i64 *cpc, const i64 *ctk, const i64 *cml,
                     const i64 *cind, const i64 *ctg, const i64 *ccomp,
                     const i64 *cplain, const i64 *cpcls, const i64 *cdk,
                     const i64 *clat, const i64 *cns) {
    cloop *c = (cloop *)cp;
    tctx *t = &c->t[tid];
    t->n_records = n;
    t->co = copy_col(co, n);
    t->cd = copy_col(cd, n);
    t->cs1 = copy_col(cs1, n);
    t->cs2 = copy_col(cs2, n);
    t->cpc = copy_col(cpc, n);
    t->ctk = copy_col(ctk, n);
    t->cml = copy_col(cml, n);
    t->cind = copy_col(cind, n);
    t->ctg = copy_col(ctg, n);
    t->ccomp = copy_col(ccomp, n);
    t->cplain = copy_col(cplain, n);
    t->cpcls = copy_col(cpcls, n);
    t->cdk = copy_col(cdk, n);
    t->clat = copy_col(clat, n);
    t->cns = copy_col(cns, n);
}

void cloop_seed_cache(void *cp, i64 which, const i64 *cnt,
                      const i64 *keys) {
    cloop *c = (cloop *)cp;
    lru *tgt = which == 0   ? &c->l1
               : which == 1 ? &c->l2
               : which == 2 ? &c->dtlb
               : which == 3 ? &c->itlb
                            : &c->tcl;
    for (i64 si = 0; si < tgt->nsets; si++) {
        tgt->cnt[si] = cnt[si];
        memcpy(tgt->data + si * tgt->assoc, keys + si * tgt->assoc,
               (size_t)cnt[si] * sizeof(i64));
    }
}

void cloop_seed_pred(void *cp, const u8 *table, i64 nbytes,
                     const i64 *hist, i64 nh) {
    cloop *c = (cloop *)cp;
    memcpy(c->bp_table, table, (size_t)nbytes);
    memcpy(c->bp_hist, hist, (size_t)nh * sizeof(i64));
}

void cloop_seed_ipred(void *cp, const i64 *targets, i64 n) {
    cloop *c = (cloop *)cp;
    memcpy(c->ip_targets, targets, (size_t)n * sizeof(i64));
}

void cloop_export(void *cp, struct cloop_out *out,
                  struct cloop_thread_out *threads) {
    cloop *c = (cloop *)cp;
    out->cycle = c->cycle;
    out->age = c->age;
    out->commit_rr = c->commit_rr;
    out->last_commit = c->last_commit;
    out->epoch = c->epoch;
    out->finished_count = c->finished_count;
    out->policy_rr = c->policy_rr;
    out->ff_jumps = c->ff_jumps;
    out->ff_skipped = c->ff_skipped;
    out->rename_attempted = c->rename_attempted;
    out->fresh_cycle = c->fresh_cycle;
    out->replay_cycle = c->replay_cycle;
    out->stats = c->st;
    const lru *lrus[5] = {&c->l1, &c->l2, &c->dtlb, &c->itlb, &c->tcl};
    for (int i = 0; i < 5; i++) {
        out->lru[i].hits = lrus[i]->hits;
        out->lru[i].misses = lrus[i]->misses;
        out->lru[i].evictions = lrus[i]->evictions;
    }
    out->tc_hits = c->tc_hits;
    out->tc_misses = c->tc_misses;
    out->bus_wait = c->bus_wait;
    out->coalesced = c->coalesced;
    out->bp_lookups = c->bp_lookups;
    out->bp_correct = c->bp_correct;
    out->ip_lookups = c->ip_lookups;
    out->ip_correct = c->ip_correct;
    out->icn_transfers = c->icn_transfers;
    out->icn_qwait = c->icn_qwait;
    out->mob_occ = c->mob_occ;
    out->mob_peak = c->mob_peak;
    out->mob_forwards = c->mob_forwards;
    memcpy(out->iq_occ, c->iq_occ, sizeof c->iq_occ);
    memcpy(out->iq_peak, c->iq_peak, sizeof c->iq_peak);
    for (int cl = 0; cl < 2; cl++)
        for (int k = 0; k < 2; k++) {
            const rf *f = &c->files[cl][k];
            out->rf[cl][k].in_use = f->in_use;
            out->rf[cl][k].peak = f->peak;
            out->rf[cl][k].alloc_count = f->alloc_count;
            out->rf[cl][k].cap = f->cap;
        }
    out->err = c->err;
    out->erra = c->erra;
    for (i64 ti = 0; ti < c->cfg.n_threads; ti++) {
        const tctx *t = &c->t[ti];
        struct cloop_thread_out *o = &threads[ti];
        o->committed_stat = c->cpt[ti];
        o->committed = t->committed;
        o->cursor = t->cursor;
        o->fetched_right_path = t->frp;
        o->icount = t->icount;
        o->l2_pending = t->l2_pending;
        o->first_l2_miss = t->first_l2_miss;
        o->fetch_blocked_until = t->fbu;
        o->rename_blocked_until = t->rbu;
        o->wrong_path = t->wrong_path;
        o->gated = t->gated;
        o->flushed = t->flushed;
        o->fq_len = t->fq.n;
        o->inflight_len = t->infl.n;
        o->rob_len = t->rob.n;
        o->rob_peak = t->rob_peak;
        o->iq[0] = c->iq_pt[0][ti];
        o->iq[1] = c->iq_pt[1][ti];
        o->mob = c->mob_pt[ti];
    }
}

/* Mirror of Processor.reset_measurement (+ component reset_stats):
 * zeroes counters, never peaks/alloc_count/in_use/contents/bus/fills/
 * predictor tables or histories. */
void cloop_reset_stats(void *cp) {
    cloop *c = (cloop *)cp;
    memset(&c->st, 0, sizeof c->st);
    for (i64 i = 0; i < c->cfg.n_threads; i++) c->cpt[i] = 0;
    c->l1.hits = c->l1.misses = c->l1.evictions = 0;
    c->l2.hits = c->l2.misses = c->l2.evictions = 0;
    c->dtlb.hits = c->dtlb.misses = c->dtlb.evictions = 0;
    c->itlb.hits = c->itlb.misses = c->itlb.evictions = 0;
    c->tcl.hits = c->tcl.misses = c->tcl.evictions = 0;
    c->tc_hits = c->tc_misses = 0;
    c->bus_wait = c->coalesced = 0;
    c->bp_lookups = c->bp_correct = 0;
    c->ip_lookups = c->ip_correct = 0;
    c->icn_transfers = c->icn_qwait = 0;
    c->mob_forwards = 0;
}

void cloop_free(void *cp) {
    cloop *c = (cloop *)cp;
    if (!c) return;
    lru_destroy(&c->l1);
    lru_destroy(&c->l2);
    lru_destroy(&c->dtlb);
    lru_destroy(&c->itlb);
    lru_destroy(&c->tcl);
    free(c->bus);
    imap_destroy(&c->infl_fills);
    free(c->bp_table);
    free(c->bp_hist);
    free(c->ip_targets);
    ring_destroy(&c->icn_pending);
    vec_destroy(&c->icn_when);
    vec_destroy(&c->icn_key);
    vec_destroy(&c->icn_when2);
    vec_destroy(&c->icn_key2);
    vec_destroy(&c->arrived);
    free(c->mob_pt);
    for (i64 i = 0; i < c->cfg.n_threads; i++) imap_destroy(&c->mob_lines[i]);
    free(c->mob_lines);
    free(c->iq_pt[0]);
    free(c->iq_pt[1]);
    for (int cl = 0; cl < 2; cl++)
        for (int k = 0; k < 2; k++) rf_destroy(&c->files[cl][k]);
    for (i64 i = 0; i < c->pool_n; i++) vec_destroy(&c->pool[i]);
    free(c->pool);
    free(c->pool_free);
    imap_destroy(&c->ev_map);
    imap_destroy(&c->fill_map);
    free(c->free_slots);
    free(c->p_op); free(c->p_dest); free(c->p_s1); free(c->p_s2);
    free(c->p_seq); free(c->p_ml); free(c->p_lat); free(c->p_tid);
    free(c->p_age); free(c->p_gen); free(c->p_cl); free(c->p_pref);
    free(c->p_pd); free(c->p_pp); free(c->p_ppc); free(c->p_pr);
    free(c->p_wc); free(c->p_mob); free(c->p_w0); free(c->p_w1);
    free(c->p_destk); free(c->p_pcls); free(c->p_wp); free(c->p_iss);
    free(c->p_sq); free(c->p_done); free(c->p_misp); free(c->p_orph);
    free(c->p_l2m);
    vec_destroy(&c->selected);
    for (int ci = 0; ci < 2; ci++) {
        vec_destroy(&c->heap[ci]);
        vec_destroy(&c->deferred[ci]);
        vec_destroy(&c->defer2[ci]);
        vec_destroy(&c->passed[ci]);
    }
    for (i64 i = 0; i < c->cfg.n_threads; i++) {
        tctx *t = &c->t[i];
        ring_destroy(&t->fq);
        ring_destroy(&t->infl);
        ring_destroy(&t->rob);
        free(t->atcl); free(t->atph); free(t->atrp);
        free(t->co); free(t->cd); free(t->cs1); free(t->cs2);
        free(t->cpc); free(t->ctk); free(t->cml); free(t->cind);
        free(t->ctg); free(t->ccomp); free(t->cplain); free(t->cpcls);
        free(t->cdk); free(t->clat); free(t->cns);
    }
    free(c->t);
    free(c->cpt);
    vec_destroy(&c->creplays);
    free(c);
}
