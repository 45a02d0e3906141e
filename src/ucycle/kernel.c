/* The exact cover of search._cover_tree, in C.
 *
 * The same tree in the same order: the pin, the complement rule's branch at
 * q = 2, the most constrained translate with the frontier scanned in
 * ascending translate order, forced words, words tried in ascending order
 * and relabeling broken by first occurrence.  So the verdict, the witness
 * and the node count are the Python search's, which the tests check.
 *
 * A live set is N bits in W = ceil(N / 64) words; each search allocates its
 * state from q and n (N = q**n <= 4096).  The search returns to its caller
 * every 1,024 nodes, so the clock, the polls of search._drive and signals
 * are all handled in Python, between calls.  search.py keeps everything
 * around the tree: the cubes, the clock, processes and the final
 * verify_cover.  kernel.py compiles and calls this file.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef uint64_t u64;

/* a real branch on translate t: its last word tried and the trail length
 * before it */
struct frame { int t, last, mark; };

/* cover_run's return codes; kernel.py names them */
enum { EXHAUSTED, FOUND, BRANCH, OVER, TICK };

/* s->cube: the option the first real branch takes; PREFIX stops there
 * instead, and TAKEN lets every real branch try all its options */
enum { PREFIX = -1, TAKEN = -2 };

struct cover {
    int q, n, N, W, target, untouched, nfront, ntrail;
    size_t nolds;
    /* where cover_run stopped: nodes, open frames, the option to place,
     * whether it was stopped at a TICK, and the cube (see cover_run) */
    long long nodes;
    int nframes, ot, ow, resume, cube;
    int *powers;    /* n: q**(n-1-j) */
    int *tr_pos;    /* N*n: position t + I[j] */
    int *pos_tr;    /* N*n: translate p - I[j] */
    int *chi;       /* N: symbol at each position, -1 while open */
    int *nfix;      /* N: fixed positions of each translate */
    int *counts;    /* q: positions holding each symbol */
    int *rank;      /* q: rank of each unused symbol, -1 when used */
    int *trail;     /* N: fixed positions, in order */
    u64 *cmask;     /* q*n*W: words whose coordinate j reads c */
    u64 *live;      /* N*W: words consistent with a touched translate */
    u64 *front;     /* W: open translates with a fixed position */
    u64 *free_;     /* W: words no closed translate reads */
    u64 *all;       /* W: every word */
    u64 *olds;      /* N*n*W: the live sets each fix replaced */
    u64 *frees;     /* N*W: the free set each frame saved */
    u64 *once, *twice;  /* W each: scratch for the word pass */
    struct frame *frames;   /* N: the open real branches */
};

/* inline: at -O2 without -mpopcnt, __builtin_popcountll is a library call */
static inline int popcount(u64 x)
{
    x -= x >> 1 & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + (x >> 2 & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    return (int)(x * 0x0101010101010101ULL >> 56);
}

#define GET(a, i) ((a)[(i) >> 6] >> ((i) & 63) & 1)
#define SET(a, i) ((a)[(i) >> 6] |= (u64)1 << ((i) & 63))
#define CLR(a, i) ((a)[(i) >> 6] &= ~((u64)1 << ((i) & 63)))

/* Fix the open positions of t + I to the digits of w; 0 when a symbol is
 * over-used, a closed translate repeats a word or an open one loses its
 * last live word.  Every fix records n old live sets, so undo() can
 * restore a failed placement too. */
static int place(struct cover *s, int t, int w)
{
    const int n = s->n, W = s->W;
    int ok = 1;
    for (int j = 0; j < n; j++) {
        int p = s->tr_pos[t * n + j];
        if (s->chi[p] >= 0)
            continue;
        int c = w / s->powers[j] % s->q;
        s->chi[p] = c;
        s->trail[s->ntrail++] = p;
        if (++s->counts[c] > s->target)
            ok = 0;
        for (int i = 0; i < n; i++) {
            int u = s->pos_tr[p * n + i];
            const u64 *m = s->cmask + (size_t)(c * n + i) * W;
            u64 *lv = s->live + (size_t)u * W;
            u64 *old = s->olds + s->nolds++ * W;
            u64 hit = 0;
            int k = s->nfix[u];
            if (k) {
                for (int x = 0; x < W; x++) {
                    old[x] = lv[x];
                    lv[x] &= m[x];
                    hit |= lv[x] & s->free_[x];
                }
            } else {
                for (int x = 0; x < W; x++) {
                    old[x] = lv[x] = m[x];
                    hit |= m[x] & s->free_[x];
                }
                s->untouched--;
                SET(s->front, u);
                s->nfront++;
            }
            s->nfix[u] = ++k;
            if (k == n) {
                CLR(s->front, u);
                s->nfront--;
                if (hit)
                    for (int x = 0; x < W; x++)
                        s->free_[x] ^= lv[x];
                else
                    ok = 0;
            } else if (!hit) {
                ok = 0;
            }
        }
        if (!ok)
            return 0;
    }
    return 1;
}

static void undo(struct cover *s, int mark)
{
    const int n = s->n, W = s->W;
    while (s->ntrail > mark) {
        int p = s->trail[--s->ntrail];
        s->counts[s->chi[p]]--;
        s->chi[p] = -1;
        for (int i = n - 1; i >= 0; i--) {
            int u = s->pos_tr[p * n + i];
            int k = s->nfix[u];
            if (k == n) {
                SET(s->front, u);
                s->nfront++;
            } else if (k == 1) {
                CLR(s->front, u);
                s->nfront--;
                s->untouched++;
            }
            s->nfix[u] = k - 1;
            const u64 *old = s->olds + --s->nolds * W;
            u64 *lv = s->live + (size_t)u * W;
            for (int x = 0; x < W; x++)
                lv[x] = old[x];
        }
    }
}

static int first_untouched(const struct cover *s)
{
    int t = 0;
    while (s->nfix[t])
        t++;
    return t;
}

/* The least word above `after` that translate t can take and whose unused
 * symbols first occur along the coordinates as the least unused ones
 * (search._least_new_symbols); -1 when there is none. */
static int next_word(struct cover *s, int t, int after)
{
    const int q = s->q, n = s->n, W = s->W;
    const u64 *base = s->nfix[t] ? s->live + (size_t)t * W : s->all;
    int unused = 0;
    for (int c = 0; c < q; c++)
        s->rank[c] = s->counts[c] ? -1 : unused++;
    for (int x = (after + 1) >> 6; x < W; x++) {
        u64 m = base[x] & s->free_[x];
        if (x == (after + 1) >> 6)
            m &= ~(u64)0 << ((after + 1) & 63);
        for (; m; m &= m - 1) {
            int w = x * 64 + __builtin_ctzll(m);
            if (unused < 2)
                return w;
            int k = 0, j = 0;
            for (; j < n; j++) {
                int r = s->rank[w / s->powers[j] % q];
                if (r > k)
                    break;
                if (r == k)
                    k++;
            }
            if (j == n)
                return w;
        }
    }
    return -1;
}

/* The option after `after` of a branch on translate t: the least word
 * above it that t can take (next_word).  At t < 0 the branch is the
 * complement rule's, whose options are the translates r <= N/2 that can
 * still take 1**n (word N - 1); the least above `after` is returned.  -1
 * when there is none. */
static int next_option(struct cover *s, int t, int after)
{
    if (t >= 0)
        return next_word(s, t, after);
    for (int r = after < 1 ? 1 : after + 1; r <= s->N / 2; r++)
        if (!s->nfix[r])
            return r;
    return -1;
}

/* The item to branch on: 0 when the node fails, 1 for the forced option
 * (*pt, *pw), 2 for a branch on the words of translate *pt. */
static int branch(struct cover *s, int *pt, int *pw)
{
    const int N = s->N, W = s->W;
    int bcnt = N + 1, bt = -1;
    /* the frontier in ascending order; the first translate with at most
     * one live word ends the scan */
    for (int y = 0; y < W && bcnt > 1; y++) {
        for (u64 f = s->front[y]; f; f &= f - 1) {
            int t = y * 64 + __builtin_ctzll(f), cnt = 0;
            const u64 *lv = s->live + (size_t)t * W;
            for (int x = 0; x < W && cnt < bcnt; x++)
                cnt += popcount(lv[x] & s->free_[x]);
            if (cnt < bcnt) {
                bcnt = cnt;
                bt = t;
                if (cnt < 2)
                    break;
            }
        }
    }
    if (bcnt == 0)
        return 0;
    if (bcnt == 1) {
        const u64 *lv = s->live + (size_t)bt * W;
        for (int x = 0; x < W; x++)
            if (lv[x] & s->free_[x]) {
                *pt = bt;
                *pw = x * 64 + __builtin_ctzll(lv[x] & s->free_[x]);
                return 1;
            }
    }
    if (!s->nfront) {
        /* I lies in a proper subgroup and the cosets begun are done */
        *pt = first_untouched(s);
        return 2;
    }
    if (s->untouched < 2) {
        /* the words with no or one candidate translate; an untouched
         * translate is a candidate for every word */
        u64 *once = s->once, *twice = s->twice;
        memset(once, 0, W * sizeof(u64));
        memset(twice, 0, W * sizeof(u64));
        for (int y = 0; y < W; y++)
            for (u64 f = s->front[y]; f; f &= f - 1) {
                const u64 *lv = s->live
                    + (size_t)(y * 64 + __builtin_ctzll(f)) * W;
                for (int x = 0; x < W; x++) {
                    u64 m = lv[x] & s->free_[x];
                    twice[x] |= once[x] & m;
                    once[x] |= m;
                }
            }
        if (s->untouched)
            for (int x = 0; x < W; x++) {
                twice[x] |= once[x];
                once[x] = s->free_[x];
            }
        for (int x = 0; x < W; x++)
            if (once[x] != s->free_[x])
                return 0;
        for (int x = 0; x < W; x++) {
            u64 single = once[x] & ~twice[x];
            if (!single)
                continue;
            int w = x * 64 + __builtin_ctzll(single);
            *pw = w;
            for (int y = 0; y < W; y++)
                for (u64 f = s->front[y]; f; f &= f - 1) {
                    int t = y * 64 + __builtin_ctzll(f);
                    if (GET(s->live + (size_t)t * W, w)) {
                        *pt = t;
                        return 1;
                    }
                }
            *pt = first_untouched(s);
            return 1;
        }
    }
    *pt = bt;
    return 2;
}

/* A fresh search state for the exact cover of q, n and the n-element set
 * I, in one block that cover_free releases; NULL when it cannot be
 * allocated. */
struct cover *cover_new(int q, int n, const int *I)
{
    int N = 1;
    for (int j = 0; j < n; j++)
        N *= q;
    const int W = (N + 63) / 64;
    size_t words = (size_t)q * n * W + (size_t)N * W + 5 * (size_t)W
                   + (size_t)N * n * W + (size_t)N * W;
    size_t ints = (size_t)n + 2 * (size_t)N * n + 3 * (size_t)N
                  + 2 * (size_t)q;
    struct cover *s = malloc(sizeof *s + words * sizeof(u64)
                             + ints * sizeof(int)
                             + (size_t)N * sizeof(struct frame));
    if (!s)
        return NULL;
    u64 *wp = (u64 *)(s + 1);
    s->cmask = wp;  wp += (size_t)q * n * W;
    s->live = wp;   wp += (size_t)N * W;
    s->front = wp;  wp += W;
    s->free_ = wp;  wp += W;
    s->all = wp;    wp += W;
    s->once = wp;   wp += W;
    s->twice = wp;  wp += W;
    s->olds = wp;   wp += (size_t)N * n * W;
    s->frees = wp;  wp += (size_t)N * W;
    int *ip = (int *)wp;
    s->powers = ip; ip += n;
    s->tr_pos = ip; ip += (size_t)N * n;
    s->pos_tr = ip; ip += (size_t)N * n;
    s->chi = ip;    ip += N;
    s->nfix = ip;   ip += N;
    s->trail = ip;  ip += N;
    s->counts = ip; ip += q;
    s->rank = ip;   ip += q;
    s->frames = (struct frame *)ip;

    s->q = q;
    s->n = n;
    s->N = N;
    s->W = W;
    s->target = N / q;
    s->untouched = N;
    s->nfront = s->ntrail = 0;
    s->nolds = 0;
    s->nodes = 0;
    s->nframes = s->ot = s->ow = s->resume = 0;
    for (int j = 0, d = N / q; j < n; j++, d /= q)
        s->powers[j] = d;
    for (int t = 0; t < N; t++)
        for (int j = 0; j < n; j++) {
            s->tr_pos[t * n + j] = (t + I[j]) % N;
            s->pos_tr[t * n + j] = (t - I[j] + N) % N;
        }
    memset(s->cmask, 0, (size_t)q * n * W * sizeof(u64));
    for (int w = 0; w < N; w++)
        for (int j = 0; j < n; j++)
            SET(s->cmask + (size_t)(w / s->powers[j] % q * n + j) * W, w);
    memset(s->front, 0, W * sizeof(u64));
    memset(s->all, 0, W * sizeof(u64));
    for (int w = 0; w < N; w++)
        SET(s->all, w);
    memcpy(s->free_, s->all, W * sizeof(u64));
    for (int p = 0; p < N; p++) {
        s->chi[p] = -1;
        s->nfix[p] = 0;
    }
    memset(s->counts, 0, q * sizeof(int));
    return s;
}

void cover_free(struct cover *s)
{
    free(s);
}

/* Run the search of s as search._cover_tree runs it, until it ends or its
 * node count reaches a multiple of 1,024: then it returns TICK, for the
 * caller to read the clock and poll, and the next call goes on from there.
 * cube is read on the first call only.  With cube < 0 it runs the pin and
 * its forced moves and stops at the first real branch: it returns BRANCH
 * with the number of options in out[0].  Otherwise it runs the same
 * prefix, counting its nodes again, takes only option cube of that branch
 * and exhausts it.  FOUND leaves the symbols in out[0 .. N).  OVER means
 * *nodes passed limit (limit < 0: none).  out holds N ints. */
int cover_run(struct cover *s, int cube, long long limit,
              long long *nodes_out, int *out)
{
    struct frame *frames = s->frames;
    const int N = s->N, W = s->W;
    long long nodes = s->nodes;
    int nframes = s->nframes, ot = s->ot, ow = s->ow;
    int rc, have = 1, decide = 1, comp = 0;

    if (s->resume) {
        /* the option counted before the last TICK is still to be placed;
         * jumping into the loop skips no initialization it reads */
        s->resume = 0;
        goto place_option;
    }
    s->cube = cube < 0 ? PREFIX : cube;
    nframes = 0;
    /* rotation rule: translate 0 reads 0**n; at q = 2 the complement
     * rule's branch comes next */
    if (!place(s, 0, 0)) {
        rc = EXHAUSTED;
        goto done;
    }
    comp = s->q == 2;
    for (;;) {
        if (decide) {
            int t = -1, w = 0, kind = comp ? 2 : branch(s, &t, &w);
            comp = 0;
            have = 0;
            if (kind == 1) {
                have = 1;
                ot = t;
                ow = w;
            } else if (kind == 2) {
                int w1 = next_option(s, t, -1);
                int w2 = w1 < 0 ? -1 : next_option(s, t, w1);
                if (w2 >= 0 && s->cube == PREFIX) {
                    int cnt = 0;
                    for (int x = w1; x >= 0; x = next_option(s, t, x))
                        cnt++;
                    out[0] = cnt;
                    rc = BRANCH;
                    goto done;
                }
                if (w2 >= 0 && s->cube >= 0) {
                    /* the cube's option, alone */
                    for (int i = s->cube; i > 0 && w1 >= 0; i--)
                        w1 = next_option(s, t, w1);
                    s->cube = TAKEN;
                    w2 = -1;
                }
                if (w1 >= 0 && w2 < 0) {
                    have = 1;
                    ot = t < 0 ? w1 : t;
                    ow = t < 0 ? N - 1 : w1;
                } else if (w2 >= 0) {
                    /* a lone option is forced and gets no frame: when it
                     * fails, the innermost real branch moves on */
                    struct frame *f = &frames[nframes];
                    f->t = t;
                    f->last = w1;
                    f->mark = s->ntrail;
                    memcpy(s->frees + (size_t)nframes * W, s->free_,
                           W * sizeof(u64));
                    nframes++;
                    have = 1;
                    ot = t;
                    ow = w1;
                }
            }
        }
        decide = 1;
        for (;;) {
            if (have) {
                nodes++;
                if (limit >= 0 && nodes > limit) {
                    rc = OVER;
                    goto done;
                }
                if (!(nodes & 1023)) {
                    s->resume = 1;
                    rc = TICK;
                    goto done;
                }
place_option:
                if (place(s, ot, ow))
                    break;
            }
            if (!nframes) {
                rc = EXHAUSTED;
                goto done;
            }
            struct frame *f = &frames[nframes - 1];
            undo(s, f->mark);
            memcpy(s->free_, s->frees + (size_t)(nframes - 1) * W,
                   W * sizeof(u64));
            int w = next_word(s, f->t, f->last);
            if (w >= 0) {
                f->last = w;
                have = 1;
                ot = f->t;
                ow = w;
            } else {
                nframes--;
                have = 0;
            }
        }
        if (!s->nfront && !s->untouched) {
            memcpy(out, s->chi, N * sizeof(int));
            rc = FOUND;
            goto done;
        }
    }
done:
    s->nodes = nodes;
    s->nframes = nframes;
    s->ot = ot;
    s->ow = ow;
    *nodes_out = nodes;
    return rc;
}
