/* The interface of the whole-loop C kernel (cloop.c), declared once.
 *
 * cloop.c includes this file, and repro.core.ckernel hands its text to
 * cffi's cdef, so the compiler checks every definition against the
 * declaration Python calls through.  It therefore holds only what cdef
 * parses: structs, enums and the cloop_* prototypes (no #include, no
 * typedef, no include guard). */

/* The machine configuration.  Python fills it by field name
 * (_CloopContext._config); cloop_new copies it once into c->cfg. */
struct cloop_cfg {
    /* pipeline */
    long long n_threads, fetch_width, rename_width, commit_width, fq_cap;
    long long misp_pipe, mrom_lat, model_wp;
    long long iq_cap[2], max_scan[2];
    long long rob_cap, rob_unbounded, mob_cap;
    long long icn_links, icn_lat;
    long long num_int, num_arch, imb_threshold;
    /* the policy as a point on two axes (enum cloop_iq_scheme and
     * enum cloop_miss_reaction) */
    long long iq_scheme, miss_reaction;
    long long dispatch_trivial, memo_on, forced_mode;
    long long slot_bits, watchdog;
    long long latency[8], copy_pcls;
    long long OP_LOAD, OP_STORE, OP_BRANCH, OP_COPY;
    /* memory hierarchy: sets x ways of each LRU array, then latencies */
    long long l1_sets, l1_ways, l1_lat, l2_sets, l2_ways, l2_lat, mem_lat;
    long long dtlb_sets, dtlb_ways, d_lpp, d_miss, nbuses;
    long long itlb_sets, itlb_ways, i_lpp, i_miss;
    long long tc_sets, tc_ways, tc_line_uops, tc_fill_lat;
    /* predictors */
    long long bp_entries, bp_hist_bits, ip_entries;
    /* initial sizes: register files [cluster][kind] and slot pool */
    long long rf_cap[2][2], rf_unbounded, pool_cap;
    /* the rename round-robin pointer the machine starts from */
    long long policy_rr_start;
};

/* cloop_cfg.iq_scheme: the issue-queue admission scheme (Table 3) */
enum cloop_iq_scheme {
    CLOOP_IQ_NONE = 0,    /* Icount: admit everything */
    CLOOP_IQ_CISP = 1,    /* equal share of the total IQ */
    CLOOP_IQ_CSSP = 2,    /* equal share of each cluster's IQ */
    CLOOP_IQ_CSPSP = 3,   /* reserved slice per cluster + shared pool */
    CLOOP_IQ_PC = 4       /* each thread on its home cluster only */
};

/* cloop_cfg.miss_reaction: what a right-path L2 miss does to its thread */
enum cloop_miss_reaction {
    CLOOP_MISS_NONE = 0,
    CLOOP_MISS_STALL = 1,     /* gate rename until the miss resolves */
    CLOOP_MISS_FLUSHPLUS = 2  /* flush younger uops; first misser continues */
};

/* cloop_run's return codes */
enum cloop_exit {
    CLOOP_LIMIT = 0,      /* ran to the cycle limit */
    CLOOP_DONE = 1,       /* the stop condition fired */
    CLOOP_WATCHDOG = 2,   /* no commit for cfg.watchdog cycles */
    CLOOP_POOL_FULL = 3,  /* the slot pool cannot grow past 1 << slot_bits */
    CLOOP_ERROR = 4       /* a machine invariant broke: see cloop_out.err */
};

/* cloop_out.err: which invariant broke (cloop_out.erra is its argument) */
enum cloop_fault {
    CLOOP_ERR_IQ_OVERFLOW = 1,     /* erra = the cluster */
    CLOOP_ERR_LIVE_WAITERS = 2,    /* a freed phys reg still has waiters */
    CLOOP_ERR_MOB_UNDERFLOW = 3,
    CLOOP_ERR_RF_EXHAUSTED = 4,    /* a bounded file ran dry mid-rename */
    CLOOP_ERR_RIGHT_PATH_SQUASH = 5,
    CLOOP_ERR_POOL_FULL = 6        /* set alongside CLOOP_POOL_FULL */
};

/* The kernel's statistics counters (cloop_reset_stats zeroes them). */
struct cloop_stats {
    long long cycles, committed, renamed, fetched, issued;
    long long copies_renamed, copies_arrived, iq_stalls, iq_block_stalls;
    long long rename_stall[5], reg_stall_events[2];
    long long mispredicts, squashed, wp_fetched, wp_renamed;
    long long imbalance[3][2], imbalance_cycles, issue_cycles;
    long long flushes, stalled_thread_cycles;
};

/* hits/misses/evictions of one LRU array */
struct cloop_lru_out {
    long long hits, misses, evictions;
};

/* one physical register file */
struct cloop_rf_out {
    long long in_use, peak, alloc_count, cap;
};

/* The observable machine state cloop_export copies out at every region
 * boundary. */
struct cloop_out {
    /* machine scalars */
    long long cycle, age, commit_rr, last_commit, epoch, finished_count;
    long long policy_rr, ff_jumps, ff_skipped;
    long long rename_attempted, fresh_cycle, replay_cycle;
    struct cloop_stats stats;
    /* memory system: l1, l2, dtlb, itlb, trace-cache lines */
    struct cloop_lru_out lru[5];
    long long tc_hits, tc_misses, bus_wait, coalesced;
    /* predictors, interconnect, MOB, issue queues */
    long long bp_lookups, bp_correct, ip_lookups, ip_correct;
    long long icn_transfers, icn_qwait;
    long long mob_occ, mob_peak, mob_forwards;
    long long iq_occ[2], iq_peak[2];
    /* register files [cluster][kind] */
    struct cloop_rf_out rf[2][2];
    /* the broken invariant behind CLOOP_ERROR (0 = none) */
    long long err, erra;
};

/* The observable state of one hardware thread. */
struct cloop_thread_out {
    long long committed_stat;   /* stats.committed_per_thread */
    long long committed, cursor, fetched_right_path, icount;
    long long l2_pending, first_l2_miss, fetch_blocked_until;
    long long rename_blocked_until, wrong_path, gated, flushed;
    long long fq_len, inflight_len, rob_len, rob_peak;
    long long iq[2], mob;
};

void *cloop_new(const struct cloop_cfg *cfg);
void cloop_free(void *cp);
void cloop_set_trace(void *cp, long long tid, long long n,
    const long long *co, const long long *cd, const long long *cs1,
    const long long *cs2, const long long *cpc, const long long *ctk,
    const long long *cml, const long long *cind, const long long *ctg,
    const long long *ccomp, const long long *cplain,
    const long long *cpcls, const long long *cdk, const long long *clat,
    const long long *cns);
void cloop_seed_cache(void *cp, long long which, const long long *cnt,
                      const long long *keys);
void cloop_seed_pred(void *cp, const unsigned char *table,
                     long long nbytes, const long long *hist,
                     long long nh);
void cloop_seed_ipred(void *cp, const long long *targets, long long n);
long long cloop_run(void *cp, long long limit, long long stop_mode,
                    long long commit_target, long long use_ff,
                    long long single);
void cloop_export(void *cp, struct cloop_out *out,
                  struct cloop_thread_out *threads);
void cloop_reset_stats(void *cp);
