// Compiled trial loop for ckplab: a draw-for-draw mirror of the pure engine,
// PyEngine.step, whose decisions up to the check are the ones
// evolution.draw_move makes, in its order.
//
// Python surface (module ckplab._kernel):
//
//   KernelEngine(features, init_state, seed, audit_cheap=False)
//       .counts()                        -> dict, as PyEngine.counts()
//       .run(horizon, checkpoint_steps=()) -> dict, as PyEngine.run()
//       .export_state()                  -> CkpState
//       .export_bookkeeping()            -> dict, see below
//   KERNEL_READY = True
//
// export_bookkeeping() returns the record PyEngine.export_bookkeeping()
// returns, same keys and equal values: the weights, their total, positive
// count and Fenwick tree, the PT False count, the membership codes
// (member) and the count of nodes per code (member_count), the zero-run
// marker, the stop flag and step index, and the frozen PF child counts.
// audits.full_audit reads that record with export_state(), so one audit
// checks both engines.
//
// Scope: the non-adversarial regime.  A feature set with a nonzero
// adversary rate is refused with ValueError; adversaries stay Python.
// The law is read as its support and cum, and the state as its labels,
// truth bits and parents, every cache derived as state._recount does.
// Ids are int32 and the weight index holds at most 2**30 slots: more
// nodes or edges, or a parent count past INT_MAX, raise OverflowError
// (below 1, ValueError); a check depth past INT_MAX, deeper than any
// walk can go, is read as INT_MAX.
//
// Decision-stream contract.  For a given seed this engine consumes the
// same uniforms, in the same order, as evolution.PyEngine driven by
// rand.SimChooser, so both produce the same trajectory bit for bit:
//
//   * Uniforms come from the PCG64 ``bitgen_t`` behind
//     ``rand.pcg64(seed).capsule``, one ``next_double`` per draw, which
//     is what ``Generator.random()`` returns.  ``rand.pcg64`` holds the
//     seed rule SimChooser follows too: a non-negative integer (a numpy
//     integer or one of 2**64 or more included) is a seed; a bool,
//     anything else and a negative integer raise ValueError.
//   * SimChooser's skip rules hold: a coin with p <= 0 or p >= 1, a
//     uniform index over one alternative and a parent-count law with one
//     support point consume nothing; a weighted parent pick always
//     consumes one uniform.
//   * Attachment weights are attachment.attachment_weight(attach, d),
//     called back into Python, as the seed rule rand.pcg64 is, once per
//     degree d, in increasing order, and kept in the per-degree table
//     ``aval``.  Both backends keep that table, and PyEngine.aval
//     (filled by attachment.extend_table through the same function) is
//     the reference: each fills it to the largest live degree at
//     construction and extends it when a step reaches a new degree, so
//     both ask for the same degrees in the same order and add the same
//     floats.  A weight that is not finite is refused there, by name,
//     with one text on both backends; anything the attachment raises
//     propagates.
//   * The Fenwick weight index is attachment.WeightIndex field for
//     field, but for the weights, which it does not store: a slot's
//     weight is read from its node record, aval(deg_pt) for a PT node
//     and 0.0 for a PF one, -0.0 read as 0.0.  Same capacity schedule,
//     same update order (weights refreshed for sorted unique parents),
//     same select and fallback scan.  The capacity is a power of two,
//     1024 at construction.  Append, set and grow are its only writers:
//     the constructor appends each node's weight in id order, as
//     attachment.weight_index_for does, and a regrowth doubles the
//     capacity, keeps every slot and copies the root.  Every update is
//     handed the weight it replaces.
//     A weight total that is not finite is refused by name, with
//     WeightIndex's text, wherever a total is formed.  A step
//     with one parent draws its pick and finds it as select does.  A
//     step with m > 1 parents draws its m picks first, then finds them
//     together in one descent that advances every pick at each tree
//     level; no draw comes between two picks and no pick writes the
//     tree, so each is WeightIndex.select's slot for its x = u * total,
//     and the draws are draw_move's, in its order.
//   * run_check has the shape of checking.run_check: the whole-check
//     mechanisms flip one coin, then walk (stringy) or search one ball
//     (bfs); the per-edge mechanisms run one loop over the parent edges
//     with three stop policies (exhaustive-bfs returns at the first
//     find, parentwise-bfs moves to the next edge after a self-catch,
//     complete never stops and sweeps whole balls).  There is one ball
//     walk: FIFO, parents in edge insertion order, each node enqueued
//     once, recognition on pop, PF nodes never entered.  A walk from a
//     hidden-True node is skipped, as in checking._ball: it could
//     recognize nothing, so it draws nothing and visits nothing.
//     Both constructors run state.verify_state, one pass over the labels,
//     truth bits and parents.  It refuses a state with a label other
//     than CT (0), CF (1) or PF (2), a parent that is not an earlier
//     node, derived columns (children in insertion order, degrees, PF
//     counts) that disagree with its recount, or a broken truth rule,
//     under which that skip would not hold.
//   * Marks are applied in sorted order, as PyEngine._apply_marks and
//     CkpState.mark_pf do; AllWeightsZero, AuditViolation and StateError
//     are raised by name with the Python engine's messages.
//
// Layout.  Node ids and edge ids are dense int32.
//
//   * Node: one 24-byte record per node with everything the ball walk
//     and the per-step bookkeeping read together: the CSR offset and
//     count of its parent edges, the PF-parent count, PT/CT degrees,
//     label, hidden truth and one membership code (0 neither, 1 minimal
//     false, 2 CT non-root leaf in the mode's sense; the two sets are
//     disjoint).  A new node's code is set once, at birth in add_node;
//     after that refresh is the only writer of a code and of the count
//     of nodes per code, as PyEngine._refresh_membership is.  Nothing in
//     the record belongs to one walk.
//   * Parents are immutable once a node exists, so they are CSR: one
//     edge array, indexed from each node's offset, in insertion order.
//   * Children are intrusive lists over edge ids (a head per node, a next
//     per edge, plus the edge's child), each new edge inserted at the
//     head.  Nothing in a step depends on their order: a mark counts PF
//     parents and refreshes membership over them, and a leaf test asks
//     only whether the list is empty.  export_state reverses each list
//     into insertion order, the only order state.verify_state accepts.
//   * The columns that grow with the graph (the node records, the three
//     edge columns, the child heads and PF child counts and the Fenwick
//     tree) are Columns: a realloc'd heap block below 1 MB, an anonymous
//     mapping grown by Linux's mremap from there on.  A doubling then
//     moves pages rather than copying them beside the old ones, so the
//     peak is the final size and the untouched tail of a mapping costs
//     nothing; short sweep trials stay on the heap.  The scratch buffers
//     are std::vector.
//   * No per-node array or field serves the check alone.  A ball walk
//     keeps its visited set in a BallQueue, scratch sized by the walk:
//     the FIFO queue and a hash table from each queued node to its
//     position, with O(1) expected membership.  The walk reads a node's
//     depth from the queue's level boundaries, and a found node's
//     closure is a flag per queue position.  The marks of a step are
//     collected with repeats and deduplicated by the sort that orders
//     them.
//   * A step draws its parents into two buffers sized to the largest
//     parent count, one for the picks' draws and one for the slots they
//     find, sorts the slots in place after the edges are stored, and
//     allocates nothing else.
//
// Errors raised inside the engine set the Python exception and unwind
// to the method boundary as a C++ exception; the engine is not
// expected to be usable after one.

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <numpy/random/bitgen.h>

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace {

const int8_t CT = 0;
const int8_t CF = 1;
const int8_t PF = 2;

enum Mechanism { STRINGY, BFS, EXHAUSTIVE, PARENTWISE, COMPLETE };

const char *const MECHANISM_NAMES[] = {
    "stringy", "bfs", "exhaustive-bfs", "parentwise-bfs", "complete"};

// Python objects the module resolves once, at import.
PyObject *AllWeightsZero = nullptr;   // ckplab.attachment
PyObject *AuditViolation = nullptr;   // ckplab.evolution
PyObject *SurvivalFloor = nullptr;    // ckplab.evolution, the audit's cap
PyObject *StateError = nullptr;       // ckplab.state
PyObject *VerifyState = nullptr;      // ckplab.state.verify_state
PyObject *CkpStateType = nullptr;     // ckplab.state.CkpState
PyObject *Pcg64 = nullptr;            // ckplab.rand.pcg64, the seed rule
PyObject *AttachmentWeight = nullptr; // ckplab.attachment, the weight rule

// Thrown once a Python exception is set.
struct PyError {};

[[noreturn]] void fail() { throw PyError(); }

// One owned reference.
class Ref {
 public:
  explicit Ref(PyObject *obj = nullptr) : obj_(obj) {}
  ~Ref() { Py_XDECREF(obj_); }
  Ref(const Ref &) = delete;
  Ref &operator=(const Ref &) = delete;
  PyObject *get() const { return obj_; }
  void reset(PyObject *obj) {
    Py_XDECREF(obj_);
    obj_ = obj;
  }
  PyObject *release() {
    PyObject *obj = obj_;
    obj_ = nullptr;
    return obj;
  }

 private:
  PyObject *obj_;
};

PyObject *check(PyObject *obj) {
  if (obj == nullptr) fail();
  return obj;
}

PyObject *attr(PyObject *obj, const char *name) {
  return check(PyObject_GetAttrString(obj, name));
}

// An int, saturated to the long long range.
long long as_long(PyObject *obj) {
  int overflow;
  long long x = PyLong_AsLongLongAndOverflow(obj, &overflow);
  if (x == -1 && PyErr_Occurred()) fail();
  return overflow > 0 ? LLONG_MAX : overflow < 0 ? LLONG_MIN : x;
}

double as_double(PyObject *obj) {
  double x = PyFloat_AsDouble(obj);
  if (x == -1.0 && PyErr_Occurred()) fail();
  return x;
}

bool truth(PyObject *obj) {
  int t = PyObject_IsTrue(obj);
  if (t < 0) fail();
  return t != 0;
}

// A list or tuple view of any sequence, with its length.
struct Seq {
  Ref seq;
  Py_ssize_t size;
  PyObject **items;
  Seq(PyObject *obj, const char *what)
      : seq(check(PySequence_Fast(obj, what))),
        size(PySequence_Fast_GET_SIZE(seq.get())),
        items(PySequence_Fast_ITEMS(seq.get())) {}
};

// ``x`` where ``keep`` is all ones, +0.0 where it is zero.
double masked(double x, uint64_t keep) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof bits);
  bits &= keep;
  std::memcpy(&x, &bits, sizeof x);
  return x;
}

// A growable array of trivially copyable values, for the columns that grow
// with the graph.  Capacity doubles.  Below COLUMN_MAP_BYTES it is a heap
// block grown by realloc, which keeps the many short-lived engines of a
// sweep off the system calls; from there on it is an anonymous mapping
// grown by mremap(MREMAP_MAYMOVE), so a doubling moves pages instead of
// holding the old copy resident beside the new one, and a freed column
// gives its pages back.
const size_t COLUMN_MAP_BYTES = size_t(1) << 20;

template <typename T>
class Column {
  static_assert(std::is_trivially_copyable<T>::value,
                "a column moves its values as raw bytes");

 public:
  Column() : data_(nullptr), size_(0), cap_(0), mapped_(false) {}
  ~Column() {
    if (mapped_)
      munmap(data_, cap_ * sizeof(T));
    else
      std::free(data_);
  }
  Column(const Column &) = delete;
  Column &operator=(const Column &) = delete;

  size_t size() const { return size_; }
  T *data() { return data_; }
  T *begin() { return data_; }
  T *end() { return data_ + size_; }
  T &operator[](size_t i) { return data_[i]; }
  const T &operator[](size_t i) const { return data_[i]; }

  void push_back(T x) {
    if (size_ == cap_) reserve(size_ + 1);
    data_[size_++] = x;
  }
  // grow to ``n`` values, the new ones ``x``
  void resize(size_t n, T x = T()) {
    reserve(n);
    std::fill(data_ + std::min(size_, n), data_ + n, x);
    size_ = n;
  }
  void assign(size_t n, T x) {
    size_ = 0;
    resize(n, x);
  }

 private:
  void reserve(size_t need) {
    if (need <= cap_) return;
    size_t bytes = std::max(need, 2 * cap_) * sizeof(T);
    void *p;
    if (bytes < COLUMN_MAP_BYTES) {
      p = std::realloc(data_, bytes);
      if (p == nullptr) throw std::bad_alloc();
    } else {
      const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
      bytes = (bytes + page - 1) / page * page;
      if (mapped_) {
        p = mremap(data_, cap_ * sizeof(T), bytes, MREMAP_MAYMOVE);
      } else {
        p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p != MAP_FAILED) {
          if (size_ > 0) std::memcpy(p, data_, size_ * sizeof(T));
          std::free(data_);
          mapped_ = true;
        }
      }
      if (p == MAP_FAILED) throw std::bad_alloc();
    }
    data_ = static_cast<T *>(p);
    cap_ = bytes / sizeof(T);
  }

  T *data_;
  size_t size_, cap_;
  bool mapped_;
};

// Per-node fields read together by the ball walk and the bookkeeping.
struct Node {
  int32_t first;      // CSR offset of the first parent edge
  int32_t npar;       // parent edges, repeats included
  int32_t pf_parent;  // parent edges leading to a PF node
  int32_t deg_pt;     // child edges whose child is CT or CF
  int32_t deg_ct;     // child edges whose child is CT
  int8_t label;
  int8_t is_false;
  int8_t member;      // membership code, Engine::membership's
};
static_assert(sizeof(Node) == 24, "Node should hold no walk scratch");

// One ball walk's FIFO queue and the set of nodes in it: an open-addressed
// table of (node, queue position) pairs, linear probing, kept at most half
// full, so membership costs O(1) expected.  Each slot carries the stamp of
// the walk that filled it, and a slot with an older stamp is empty, so a
// walk starts in O(1); the table is wiped only when the stamp wraps.  The
// table doubles with the walk, reinserting the queue in order.
class BallQueue {
 public:
  BallQueue()
      : slots_(size_t(1) << FIRST_BITS, Slot{0, 0, 0}),
        shift_(32 - FIRST_BITS),
        stamp_(1) {}

  size_t size() const { return queue_.size(); }
  int32_t operator[](size_t i) const { return queue_[i]; }

  // the queue position of ``v``, -1 if the walk has not enqueued it
  int32_t position(int32_t v) const {
    const Slot &at = slots_[slot(v)];
    return at.stamp == stamp_ ? at.pos : -1;
  }
  // enqueue ``v`` unless the walk already has
  void push(int32_t v) {
    const size_t h = slot(v);
    if (slots_[h].stamp == stamp_) return;
    slots_[h] = Slot{v, static_cast<int32_t>(queue_.size()), stamp_};
    queue_.push_back(v);
    if (2 * queue_.size() > slots_.size()) grow();
  }
  // empty the walk, then enqueue ``start``
  void restart(int32_t start) {
    if (++stamp_ == 0) {
      for (Slot &each : slots_) each.stamp = 0;
      stamp_ = 1;
    }
    queue_.clear();
    push(start);
  }

 private:
  enum { FIRST_BITS = 8 };   // 256 slots, for walks of up to 128 nodes
  struct Slot {
    int32_t node, pos;
    uint32_t stamp;
  };
  // the slot holding ``v``, or the empty one where it would go
  size_t slot(int32_t v) const {
    size_t h = (static_cast<uint32_t>(v) * 2654435769u) >> shift_;
    while (slots_[h].stamp == stamp_ && slots_[h].node != v)
      h = (h + 1) & (slots_.size() - 1);
    return h;
  }
  void grow() {
    slots_.assign(2 * slots_.size(), Slot{0, 0, 0});
    --shift_;
    for (size_t i = 0; i < queue_.size(); ++i)
      slots_[slot(queue_[i])] =
          Slot{queue_[i], static_cast<int32_t>(i), stamp_};
  }

  std::vector<int32_t> queue_;   // popped prefix = visiting order
  std::vector<Slot> slots_;
  int shift_;                    // 32 - log2(slots_.size())
  uint32_t stamp_;               // the current walk's, never 0
};

class Engine {
 public:
  Engine(PyObject *features, PyObject *init_state, PyObject *seed,
         bool audit_cheap);

  bool step();
  PyObject *counts() const;
  PyObject *run(long long horizon, PyObject *checkpoint_steps);
  PyObject *export_state() const;
  PyObject *export_bookkeeping() const;

 private:
  // randomness, mirroring SimChooser
  double draw() { return rng_->next_double(rng_->state); }
  bool maybe(double p) {
    if (p <= 0) return false;
    if (p >= 1) return true;
    return draw() < p;
  }
  int uniform_index(int n) {
    if (n == 1) return 0;
    int i = static_cast<int>(draw() * n);
    return i >= n ? n - 1 : i;
  }
  int pmf_index();

  double aval(int32_t d);

  // weight index, mirroring WeightIndex; slot i's weight is read from
  // node i, as the index holds it (-0.0 as 0.0)
  double pt_weight(int32_t d) const { return atab_[d] + 0.0; }
  double weight(int32_t i) const {
    const Node &n = nodes_[i];
    return n.label != PF ? pt_weight(n.deg_pt) : 0.0;
  }
  void w_extend();
  void w_append(double weight);
  void w_set(int32_t i, double old, double weight);
  void w_check_total();
  void w_add(int32_t i, double delta) {
    for (int64_t j = static_cast<int64_t>(i) + 1; j <= wcap_; j += j & -j)
      tree_[j] += delta;
  }
  int32_t w_select(double x);
  void w_select_picks(int m);
  int32_t w_settle(int64_t pos);

  // membership: 0 neither, 1 minimal false, 2 CT non-root leaf in the
  // mode's sense, CkpState.membership's rule
  int8_t membership(int32_t v) const {
    const Node &n = nodes_[v];
    if (n.label != CT) return n.label == CF;
    if (n.pf_parent > 0) return 1;
    return (simple_ ? child_head_[v] < 0 : n.deg_ct == 0) ? 2 : 0;
  }
  void refresh(int32_t v);

  // growth and marking
  void link_child(int32_t u, int32_t e);
  int32_t add_node(int m, int8_t label);
  void apply_marks();
  int32_t child_count(int32_t w) const;

  // checking
  bool flagged(const Node &n) {
    bool hit = n.label == CF && maybe(detection_rate_);
    return hit || n.pf_parent > 0;
  }
  // repeats are dropped when the marks are applied
  void mark(int32_t w) { step_marked_.push_back(w); }
  void mark_closure(size_t visited);
  int ball(int32_t start, int cap, bool sweep);
  void check_stringy(int32_t v);
  void run_check(int32_t v);
  void cheap_audit();

  // randomness: the PCG64 object owns the bitgen
  Ref bitgen_owner_;
  bitgen_t *rng_;
  // features
  Ref attach_;
  double check_rate_, error_rate_, detection_rate_;
  int check_depth_;
  Mechanism mech_;
  bool simple_;
  int m_max_;
  std::vector<int> law_support_;
  std::vector<double> law_cum_;
  std::vector<double> atab_;   // attachment weight by degree
  // graph
  Column<Node> nodes_;
  Column<int32_t> edge_parent_;   // CSR, in insertion order
  Column<int32_t> edge_child_;
  Column<int32_t> edge_next_;     // next child edge of the same parent
  Column<int32_t> child_head_;    // newest child edge first
  Column<int32_t> pf_child_len_;  // -1 while the node is PT
  long long pf_total_;
  // weight index
  int32_t wsize_, wcap_;
  long long wpositive_;
  double wtotal_;
  Column<double> tree_;
  // engine counters
  bool stopped_;
  long long step_index_, zero_since_;   // zero_since_ -1: nonzero now
  long long pt_false_;
  std::array<long long, 3> member_count_;   // nodes per membership code
  // scratch, reused every step
  std::vector<int32_t> pbuf_;           // this step's parents
  std::vector<double> xbuf_;            // their picks' unspent draws
  BallQueue queue_;                     // the ball walk's
  std::vector<int32_t> finds_;          // its finds' queue positions
  std::vector<uint8_t> closed_;         // a closure, by queue position
  std::vector<int32_t> walk_, step_marked_, touched_;
  // cheap audit
  bool audit_on_, track_delta_;
  long long last_potential_, fixed_floor_;
};

Engine::Engine(PyObject *features, PyObject *init_state, PyObject *seed,
               bool audit_cheap)
    : bitgen_owner_(nullptr), rng_(nullptr), attach_(nullptr) {
  {
    Ref rate(attr(features, "adversary_rate"));
    Ref zero(check(PyLong_FromLong(0)));
    int nonzero = PyObject_RichCompareBool(rate.get(), zero.get(), Py_NE);
    if (nonzero < 0) fail();
    if (nonzero) {
      PyErr_SetString(PyExc_ValueError,
                      "the compiled engine has no adversary support");
      fail();
    }
  }
  bitgen_owner_.reset(check(PyObject_CallOneArg(Pcg64, seed)));
  {
    Ref capsule(attr(bitgen_owner_.get(), "capsule"));
    rng_ = static_cast<bitgen_t *>(
        PyCapsule_GetPointer(capsule.get(), "BitGenerator"));
    if (rng_ == nullptr) fail();
  }
  attach_.reset(attr(features, "attach"));
  check_rate_ = as_double(Ref(attr(features, "check_rate")).get());
  error_rate_ = as_double(Ref(attr(features, "error_rate")).get());
  detection_rate_ = as_double(Ref(attr(features, "detection_rate")).get());
  check_depth_ = static_cast<int>(std::min<long long>(
      as_long(Ref(attr(features, "check_depth")).get()), INT_MAX));
  simple_ = truth(Ref(attr(features, "simple")).get());
  {
    Ref name(attr(features, "mechanism"));
    int code = 0;
    while (code < 5 && (!PyUnicode_Check(name.get()) ||
                        PyUnicode_CompareWithASCIIString(
                            name.get(), MECHANISM_NAMES[code]) != 0))
      ++code;
    if (code == 5) {
      PyErr_Format(PyExc_ValueError, "unknown mechanism %R", name.get());
      fail();
    }
    mech_ = static_cast<Mechanism>(code);
  }
  {
    Ref law(attr(features, "parent_count"));
    Seq support(Ref(attr(law.get(), "support")).get(), "law.support");
    Seq cum(Ref(attr(law.get(), "cum")).get(), "law.cum");
    if (support.size == 0 || cum.size != support.size) {
      PyErr_SetString(PyExc_ValueError, "the parent-count law needs a "
                      "nonempty support and a cum of its length");
      fail();
    }
    for (Py_ssize_t i = 0; i < support.size; ++i) {
      long long m = as_long(support.items[i]);
      if (m < 1 || m > INT_MAX) {
        PyErr_Format(m < 1 ? PyExc_ValueError : PyExc_OverflowError,
                     m < 1 ? "parent count %R is below 1"
                           : "parent count %R is too large for the kernel",
                     support.items[i]);
        fail();
      }
      law_support_.push_back(static_cast<int>(m));
      law_cum_.push_back(as_double(cum.items[i]));
    }
    m_max_ = *std::max_element(law_support_.begin(), law_support_.end());
    pbuf_.assign(m_max_, 0);
    xbuf_.assign(m_max_, 0.0);
  }

  // the state, refused as PyEngine refuses it: the derived columns must
  // match a recount, and the ball walk's skip needs every PF and CF node
  // False and falseness closed downward
  Ref(check(PyObject_CallOneArg(VerifyState, init_state)));
  // the graph, CSR parents; children and counts derived as it is linked
  Seq labels(Ref(attr(init_state, "labels")).get(), "labels");
  Seq is_false(Ref(attr(init_state, "is_false")).get(), "is_false");
  Seq parents(Ref(attr(init_state, "parents")).get(), "parents");
  const Py_ssize_t n = labels.size;
  // the weight index's capacity, a power of two, stays an int32
  if (n > 1 << 30) {
    PyErr_SetString(PyExc_OverflowError, "too many nodes for the kernel");
    fail();
  }
  if (is_false.size != n || parents.size != n) {
    PyErr_SetString(StateError, "state columns differ in length");
    fail();
  }
  nodes_.resize(n);
  child_head_.assign(n, -1);
  for (Py_ssize_t v = 0; v < n; ++v) {
    Node &node = nodes_[v];
    node.label = static_cast<int8_t>(as_long(labels.items[v]));
    node.is_false = truth(is_false.items[v]);
    Seq ps(parents.items[v], "parents[v]");
    if (edge_parent_.size() + static_cast<size_t>(ps.size) >= INT32_MAX) {
      PyErr_SetString(PyExc_OverflowError, "too many edges for the kernel");
      fail();
    }
    node.first = static_cast<int32_t>(edge_parent_.size());
    node.npar = static_cast<int32_t>(ps.size);
    for (Py_ssize_t j = 0; j < ps.size; ++j) {
      long long u = as_long(ps.items[j]);
      if (u < 0 || u >= n) {
        PyErr_Format(StateError, "parent id %lld out of range", u);
        fail();
      }
      int32_t e = static_cast<int32_t>(edge_parent_.size());
      edge_parent_.push_back(static_cast<int32_t>(u));
      edge_child_.push_back(static_cast<int32_t>(v));
      edge_next_.push_back(-1);
      link_child(static_cast<int32_t>(u), e);
      Node &parent = nodes_[u];
      if (parent.label == PF) ++node.pf_parent;
      if (node.label != PF) ++parent.deg_pt;
      if (node.label == CT) ++parent.deg_ct;
    }
  }

  // the weight index, filled as weight_index_for fills it: the table to
  // the largest PT degree, then one append per node in id order into
  // 1024 empty slots, PF nodes at 0.0
  int32_t top = -1;
  for (const Node &node : nodes_)
    if (node.label != PF) top = std::max(top, node.deg_pt);
  if (top >= 0) aval(top);
  wcap_ = 1024;
  wsize_ = 0;
  wtotal_ = 0.0;
  wpositive_ = 0;
  tree_.assign(static_cast<size_t>(wcap_) + 1, 0.0);
  for (int32_t v = 0; v < n; ++v) w_append(weight(v));

  // the counts; every node starts at membership code 0, and refresh sets
  // its code by the rule the steps keep it by
  stopped_ = false;
  step_index_ = 0;
  pf_total_ = pt_false_ = 0;
  member_count_ = {{n, 0, 0}};
  for (int32_t v = 0; v < n; ++v) {
    const Node &node = nodes_[v];
    pf_total_ += node.label == PF;
    if (node.label != PF && node.is_false) ++pt_false_;
    refresh(v);
    pf_child_len_.push_back(node.label == PF ? child_count(v) : -1);
  }
  zero_since_ = pt_false_ == 0 ? 0 : -1;

  audit_on_ = audit_cheap;
  track_delta_ = detection_rate_ == 1;
  last_potential_ = member_count_[1] + member_count_[2];
  fixed_floor_ =
      as_long(Ref(check(PyObject_CallOneArg(SurvivalFloor, features))).get());
}

int Engine::pmf_index() {
  int n = static_cast<int>(law_cum_.size());
  if (n == 1) return 0;
  double x = draw();
  for (int i = 0; i < n; ++i)
    if (x < law_cum_[i]) return i;
  return n - 1;
}

double Engine::aval(int32_t d) {
  while (static_cast<size_t>(d) >= atab_.size()) {
    Ref w(check(PyObject_CallFunction(AttachmentWeight, "On", attach_.get(),
                                      static_cast<Py_ssize_t>(atab_.size()))));
    double x = PyFloat_AsDouble(w.get());
    if (x == -1.0 && PyErr_Occurred()) fail();
    atab_.push_back(x);
  }
  return atab_[d];
}

// -- weight index -----------------------------------------------------------

// Double the capacity of a full tree, as WeightIndex._grow does.  A new
// slot's block lies past every weight but the new root's, which holds
// them all, as the old root does, so every old slot, the total and the
// positive count stay as they are.
void Engine::w_extend() {
  if (wcap_ > INT32_MAX / 2) {
    PyErr_SetString(PyExc_OverflowError, "weight index too large");
    fail();
  }
  tree_.resize(2 * static_cast<size_t>(wcap_) + 1, 0.0);
  tree_[2 * wcap_] = tree_[wcap_];
  wcap_ *= 2;
}

void Engine::w_append(double weight) {
  if (wsize_ >= wcap_) w_extend();
  int32_t i = wsize_++;
  if (weight != 0.0) {
    w_add(i, weight);
    wtotal_ += weight;
    if (weight > 0) ++wpositive_;
    w_check_total();
  }
}

// Slot i's weight goes from ``old`` to ``weight``.
void Engine::w_set(int32_t i, double old, double weight) {
  if (weight == old) return;
  double delta = weight - old;
  w_add(i, delta);
  wtotal_ += delta;
  if ((old > 0) != (weight > 0)) wpositive_ += weight > 0 ? 1 : -1;
  w_check_total();
}

// WeightIndex's refusal of a total past the float range, which would turn
// every draw into u * inf.
void Engine::w_check_total() {
  if (std::isfinite(wtotal_)) return;
  Ref total(check(PyFloat_FromDouble(wtotal_)));
  PyErr_Format(PyExc_ValueError, "attachment weight total is %R, not finite",
               total.get());
  fail();
}

int32_t Engine::w_select(double x) {
  int64_t pos = 0;
  double rem = x;
  for (int64_t mask = wcap_; mask; mask >>= 1) {
    int64_t nxt = pos + mask;
    if (nxt <= wcap_ && tree_[nxt] <= rem) {
      pos = nxt;
      rem -= tree_[nxt];
    }
  }
  return w_settle(pos);
}

// w_select for the m picks xbuf_[0, m), into pbuf_[0, m).  The picks are
// independent reads of one tree, so one loop over the levels advances
// them all and their cache misses overlap.  The update is branchless, so
// no pick's misprediction stalls the others, and each level prefetches
// both slots a pick may read at the next one, the lookahead a predicted
// branch would give.  A slot past the capacity reads the last one and is
// never taken, and an untaken level subtracts +0.0, which leaves every
// double as it was.
void Engine::w_select_picks(int m) {
  const double *tree = tree_.data();
  const int64_t cap = wcap_;
  double *rem = xbuf_.data();
  int32_t *pos = pbuf_.data();
  for (int i = 0; i < m; ++i) pos[i] = 0;
  for (int64_t mask = cap; mask; mask >>= 1)
    for (int i = 0; i < m; ++i) {
      const int64_t nxt = pos[i] + mask;
      __builtin_prefetch(tree + std::min(pos[i] + mask / 2, cap));
      __builtin_prefetch(tree + std::min(nxt + mask / 2, cap));
      const double t = tree[std::min(nxt, cap)];
      // all ones where the pick moves right
      const uint64_t take =
          0 - static_cast<uint64_t>((nxt <= cap) & (t <= rem[i]));
      pos[i] += static_cast<int32_t>(mask & take);
      rem[i] -= masked(t, take);
    }
  for (int i = 0; i < m; ++i) pos[i] = w_settle(pos[i]);
}

// The descent's end ``pos`` made a valid pick: clamped to the last node,
// and, since float drift or trailing zero weights can strand the draw,
// walked to the nearest positive slot, up first, as WeightIndex.select
// does.
int32_t Engine::w_settle(int64_t pos) {
  if (pos >= wsize_) pos = wsize_ - 1;
  if (weight(static_cast<int32_t>(pos)) <= 0) {
    int32_t j = static_cast<int32_t>(pos) + 1;
    while (j < wsize_ && weight(j) <= 0) ++j;
    if (j >= wsize_) {
      j = static_cast<int32_t>(pos) - 1;
      while (j >= 0 && weight(j) <= 0) --j;
    }
    if (j < 0) {
      PyErr_SetString(AllWeightsZero,
                      "no positive attachment weight to select");
      fail();
    }
    pos = j;
  }
  return static_cast<int32_t>(pos);
}

// -- growth and marking -----------------------------------------------------

// The one writer of an existing node's membership code and of the counts:
// PyEngine._refresh_membership.
void Engine::refresh(int32_t v) {
  Node &n = nodes_[v];
  const int8_t now = membership(v);
  --member_count_[n.member];
  ++member_count_[now];
  n.member = now;
}

void Engine::link_child(int32_t u, int32_t e) {
  edge_next_[e] = child_head_[u];
  child_head_[u] = e;
}

int32_t Engine::child_count(int32_t w) const {
  int32_t count = 0;
  for (int32_t e = child_head_[w]; e >= 0; e = edge_next_[e]) ++count;
  return count;
}

// The end of the run of ids equal to p[i] in the sorted p[0, n).
size_t run_end(const int32_t *p, size_t i, size_t n) {
  size_t j = i + 1;
  while (j < n && p[j] == p[i]) ++j;
  return j;
}

// Append the node whose parents are pbuf_[0, m), then update every index
// PyEngine._add_node updates, in the same order.  The parents' new
// weights are read first, so a weight past the float range is refused by
// its degree before any total is formed with it, and every degree keeps
// its weight in the table.  The new slot goes in next, then the degrees
// move.
int32_t Engine::add_node(int m, int8_t label) {
  if (nodes_.size() >= INT32_MAX - 1 ||
      edge_parent_.size() + m >= INT32_MAX) {
    PyErr_SetString(PyExc_OverflowError, "too many nodes for the kernel");
    fail();
  }
  const int32_t v = static_cast<int32_t>(nodes_.size());
  Node node = Node();
  node.first = static_cast<int32_t>(edge_parent_.size());
  node.npar = m;
  node.label = label;
  node.is_false = label == CF;
  for (int i = 0; i < m && !node.is_false; ++i)
    node.is_false = nodes_[pbuf_[i]].is_false;
  nodes_.push_back(node);
  child_head_.push_back(-1);
  pf_child_len_.push_back(-1);
  for (int i = 0; i < m; ++i) {
    int32_t u = pbuf_[i];
    int32_t e = static_cast<int32_t>(edge_parent_.size());
    edge_parent_.push_back(u);
    edge_child_.push_back(v);
    edge_next_.push_back(-1);
    link_child(u, e);
  }
  // the edges are stored: sort the buffer into one run per distinct
  // parent, in id order, as long as its count of new edges
  int32_t *p = pbuf_.data();
  const size_t n = static_cast<size_t>(m);
  std::sort(p, p + n);
  for (size_t i = 0, j; i < n; i = j) {
    j = run_end(p, i, n);
    aval(nodes_[p[i]].deg_pt + static_cast<int32_t>(j - i));
  }
  w_append(aval(0));
  int distinct = 0;
  for (size_t i = 0, j; i < n; i = j) {
    j = run_end(p, i, n);
    Node &nu = nodes_[p[i]];
    const double old = pt_weight(nu.deg_pt);
    nu.deg_pt += static_cast<int32_t>(j - i);
    if (label == CT) nu.deg_ct += static_cast<int32_t>(j - i);
    w_set(p[i], old, pt_weight(nu.deg_pt));
    p[distinct++] = p[i];
  }
  Node &nv = nodes_[v];
  nv.member = membership(v);
  ++member_count_[nv.member];
  if (nv.is_false) ++pt_false_;
  for (int i = 0; i < distinct; ++i) refresh(p[i]);
  return v;
}

// Flag step_marked_ PF: PyEngine._apply_marks around CkpState.mark_pf.
// Sorting also leaves the repeats side by side, and they go here.
void Engine::apply_marks() {
  std::sort(step_marked_.begin(), step_marked_.end());
  step_marked_.erase(std::unique(step_marked_.begin(), step_marked_.end()),
                     step_marked_.end());
  for (int32_t w : step_marked_)
    if (!nodes_[w].is_false) {
      PyErr_Format(AuditViolation, "check tried to mark True node %d", w);
      fail();
    }
  for (int32_t w : step_marked_)
    if (nodes_[w].label == PF) {
      PyErr_Format(StateError, "node %d is already PF", w);
      fail();
    }
  // the marked nodes' weights go to 0.0 before any degree falls, so each
  // is read as it was; no update reads a degree, so the order of the
  // updates is still PyEngine's
  for (int32_t w : step_marked_) w_set(w, weight(w), 0.0);
  touched_.clear();
  for (int32_t w : step_marked_) {
    Node &nw = nodes_[w];
    bool was_ct = nw.label == CT;
    nw.label = PF;
    for (int32_t e = nw.first; e < nw.first + nw.npar; ++e) {
      Node &nu = nodes_[edge_parent_[e]];
      --nu.deg_pt;
      if (was_ct) --nu.deg_ct;
      touched_.push_back(edge_parent_[e]);
    }
    for (int32_t e = child_head_[w]; e >= 0; e = edge_next_[e])
      ++nodes_[edge_child_[e]].pf_parent;
  }
  const long long k = static_cast<long long>(step_marked_.size());
  pf_total_ += k;
  for (int32_t w : step_marked_) pf_child_len_[w] = child_count(w);
  // a touched parent lost one degree per entry in touched_; a degree only
  // falls here, so the table already holds it
  std::sort(touched_.begin(), touched_.end());
  for (size_t i = 0, j; i < touched_.size(); i = j) {
    j = run_end(touched_.data(), i, touched_.size());
    const Node &nu = nodes_[touched_[i]];
    if (nu.label != PF)
      w_set(touched_[i], pt_weight(nu.deg_pt + static_cast<int32_t>(j - i)),
            pt_weight(nu.deg_pt));
  }
  pt_false_ -= k;
  // the marked nodes and their neighbours; a refresh changes nothing twice
  for (int32_t w : step_marked_) {
    refresh(w);
    for (int32_t e = child_head_[w]; e >= 0; e = edge_next_[e])
      refresh(edge_child_[e]);
    const Node &nw = nodes_[w];
    for (int32_t e = nw.first; e < nw.first + nw.npar; ++e)
      refresh(edge_parent_[e]);
  }
}

// -- checking ---------------------------------------------------------------

// Mark the finds, at the queue positions finds_, and every node among the
// first ``visited`` of the walk's queue, the finds among them, that lies
// below one through edges whose upper end is already in the closure:
// checking._descendants_within, seeded with every find.  The closure is a
// flag per queue position.  A walk queues a node's parents after it, so
// the scan goes newest first, as _descendants_within's does, and the
// closure spreads down in one pass wherever the queue keeps that order.
void Engine::mark_closure(size_t visited) {
  closed_.assign(visited, 0);
  for (int32_t f : finds_) closed_[f] = 1;
  for (bool grew = true; grew;) {
    grew = false;
    for (size_t i = visited; i-- > 0;) {
      if (closed_[i]) continue;
      const Node &nx = nodes_[queue_[i]];
      for (int32_t e = nx.first; e < nx.first + nx.npar; ++e) {
        const int32_t at = queue_.position(edge_parent_[e]);
        if (at >= 0 && static_cast<size_t>(at) < visited && closed_[at]) {
          closed_[i] = 1;
          grew = true;
          break;
        }
      }
    }
  }
  for (size_t i = 0; i < visited; ++i)
    if (closed_[i]) mark(queue_[i]);
}

// The ball walk, checking._ball: BFS upward from ``start`` to depth
// ``cap``.  Without ``sweep`` it stops at the first recognized node; with
// it, it sweeps the whole ball without expanding through recognized
// nodes.  Every find is marked with the visited nodes below it.  Returns
// the number of finds.
//
// A walk from a hidden-True ``start`` is skipped, and that is exact.
// Falseness flows down every edge, so a True node's whole ancestor cone
// is True.  A True node is not CF, and it has no PF parent, because a
// check marks only False nodes.  So the walk would meet nothing it can
// recognize: it would draw no detection coin, find nothing and mark
// nothing.
int Engine::ball(int32_t start, int cap, bool sweep) {
  if (cap < 0 || nodes_[start].label == PF || !nodes_[start].is_false)
    return 0;
  queue_.restart(start);
  finds_.clear();
  // the node at ``head`` is at depth ``depth``; the queue holds the next
  // depth from ``level_end`` on
  int depth = 0;
  size_t level_end = 1;
  for (size_t head = 0; head < queue_.size(); ++head) {
    if (head == level_end) {
      ++depth;
      level_end = queue_.size();
    }
    const Node &nu = nodes_[queue_[head]];
    if (flagged(nu)) {
      finds_.push_back(static_cast<int32_t>(head));
      if (!sweep) {
        mark_closure(head + 1);
        return 1;
      }
      continue;
    }
    if (depth >= cap) continue;
    const int32_t *e = edge_parent_.data() + nu.first;
    const int32_t *end = e + nu.npar;
    for (; e != end; ++e)
      if (nodes_[*e].label != PF) queue_.push(*e);
  }
  if (!finds_.empty()) mark_closure(queue_.size());
  return static_cast<int>(finds_.size());
}

// checking.check_stringy
void Engine::check_stringy(int32_t v) {
  walk_.clear();
  walk_.push_back(v);
  if (nodes_[v].label == CF && maybe(detection_rate_)) {
    mark(v);
    return;
  }
  int32_t current = v;
  for (int s = 0; s < check_depth_; ++s) {
    const Node &nc = nodes_[current];
    if (nc.npar == 0) break;
    int32_t target = edge_parent_[nc.first + uniform_index(nc.npar)];
    if (nodes_[target].label == PF) {
      for (int32_t w : walk_) mark(w);
      return;
    }
    walk_.push_back(target);
    current = target;
    if (nodes_[target].label == CF && maybe(detection_rate_)) {
      for (int32_t w : walk_) mark(w);
      return;
    }
  }
}

// Fill step_marked_ for the new node ``v``: checking.run_check.
void Engine::run_check(int32_t v) {
  step_marked_.clear();
  if (mech_ == STRINGY || mech_ == BFS) {
    if (!maybe(check_rate_)) return;
    if (mech_ == STRINGY)
      check_stringy(v);
    else
      ball(v, check_depth_, false);
    return;
  }
  const int32_t first = nodes_[v].first, npar = nodes_[v].npar;
  for (int32_t e = first; e < first + npar; ++e) {
    if (!maybe(check_rate_)) continue;
    if (nodes_[v].label == CF && maybe(detection_rate_)) {
      mark(v);
      if (mech_ == EXHAUSTIVE) return;
      if (mech_ == PARENTWISE) continue;
    }
    if (ball(edge_parent_[e], check_depth_ - 1, mech_ == COMPLETE) > 0) {
      mark(v);
      if (mech_ == EXHAUSTIVE) return;
    }
  }
}

// CheapAudit.after_step: the fixed cap is survival_potential_floor's, and
// complete's cap grows with the step's marks, as CheapAudit's does.
void Engine::cheap_audit() {
  if (track_delta_) {
    long long now = member_count_[1] + member_count_[2];
    long long floor = fixed_floor_;
    long long marked = static_cast<long long>(step_marked_.size());
    if (mech_ == COMPLETE && marked + m_max_ + 1 > floor)
      floor = marked + m_max_ + 1;
    if (now - last_potential_ < -floor) {
      PyErr_Format(AuditViolation,
                   "survival potential fell by %lld in one step, cap %lld",
                   last_potential_ - now, floor);
      fail();
    }
    last_potential_ = now;
  }
  for (int32_t w : step_marked_)
    if (nodes_[w].label != PF) {
      PyErr_Format(AuditViolation, "marked node %d is not PF", w);
      fail();
    }
}

// -- dynamics ---------------------------------------------------------------

// One growth attempt, PyEngine.step; returns true once the process stopped.
bool Engine::step() {
  if (stopped_) return true;
  ++step_index_;
  if (wpositive_ == 0) {
    stopped_ = true;
    return true;
  }
  const int m = law_support_[pmf_index()];
  if (m == 1) {
    pbuf_[0] = w_select(draw() * wtotal_);
  } else {
    // no pick writes the tree, so drawing every pick before finding any
    // keeps the stream and the slots
    for (int i = 0; i < m; ++i) xbuf_[i] = draw() * wtotal_;
    w_select_picks(m);
  }
  const int8_t label = maybe(error_rate_) ? CF : CT;
  const int32_t v = add_node(m, label);
  run_check(v);
  if (!step_marked_.empty()) apply_marks();
  if (pt_false_ == 0) {
    if (zero_since_ == -1) zero_since_ = step_index_;
  } else {
    zero_since_ = -1;
  }
  if (audit_on_) cheap_audit();
  return false;
}

// -- Python-facing views ----------------------------------------------------

PyObject *Engine::counts() const {
  long long n = static_cast<long long>(nodes_.size());
  return check(Py_BuildValue("{s:L,s:L,s:L,s:L,s:L,s:L}", "nodes", n, "pt",
                             n - pf_total_, "pt_false", pt_false_, "pf",
                             pf_total_, "minimal_false", member_count_[1],
                             "leaves", member_count_[2]));
}

PyObject *optional(long long x) {
  if (x < 0) Py_RETURN_NONE;
  return check(PyLong_FromLongLong(x));
}

// PyEngine.run's loop and early exit; ``horizon`` steps at most.
PyObject *Engine::run(long long horizon, PyObject *checkpoint_steps) {
  Ref unique(check(PySet_New(checkpoint_steps)));
  Ref pending(check(PySequence_List(unique.get())));
  if (PyList_Sort(pending.get()) < 0) fail();
  const Py_ssize_t total = PyList_GET_SIZE(pending.get());
  std::vector<long long> at(total);
  for (Py_ssize_t i = 0; i < total; ++i) {
    int overflow = 0;
    at[i] = PyLong_AsLongLongAndOverflow(PyList_GET_ITEM(pending.get(), i),
                                         &overflow);
    if (at[i] == -1 && PyErr_Occurred()) fail();
    if (overflow) at[i] = overflow > 0 ? LLONG_MAX : LLONG_MIN;
  }
  Ref checkpoints(check(PyList_New(0)));
  Py_ssize_t next = 0;
  auto record = [&]() {
    Ref now(counts());
    Ref entry(check(
        PyTuple_Pack(2, PyList_GET_ITEM(pending.get(), next), now.get())));
    if (PyList_Append(checkpoints.get(), entry.get()) < 0) fail();
    ++next;
  };
  while (next < total && at[next] <= 0) record();
  for (long long t = 1; t <= horizon; ++t) {
    bool stopped_now = step();
    while (next < total && at[next] <= t) record();
    if (stopped_now) break;
    if (pt_false_ == 0 && simple_) break;
  }
  while (next < total) record();
  Ref eliminated(optional(pt_false_ == 0 ? zero_since_ : -1));
  Ref stopped_at(optional(stopped_ ? step_index_ : -1));
  Ref final_counts(counts());
  return check(Py_BuildValue(
      "{s:O,s:O,s:O,s:O,s:O}", "survived_at_horizon",
      pt_false_ > 0 ? Py_True : Py_False, "eliminated_at", eliminated.get(),
      "stopped_at", stopped_at.get(), "final_counts", final_counts.get(),
      "checkpoints", checkpoints.get()));
}

// A list of n items made by ``make(i)``.
template <typename Make>
PyObject *list_of(size_t n, Make make) {
  Ref list(check(PyList_New(static_cast<Py_ssize_t>(n))));
  for (size_t i = 0; i < n; ++i)
    PyList_SET_ITEM(list.get(), static_cast<Py_ssize_t>(i), check(make(i)));
  return list.release();
}

PyObject *new_bool(bool b) { return Py_NewRef(b ? Py_True : Py_False); }

// Pauses the cyclic garbage collector while it lives, and restores the
// state it found on every exit, an error's included.
class GcPause {
 public:
  GcPause() : was_enabled_(PyGC_Disable()) {}
  ~GcPause() {
    if (was_enabled_) PyGC_Enable();
  }
  GcPause(const GcPause &) = delete;
  GcPause &operator=(const GcPause &) = delete;

 private:
  int was_enabled_;
};

// Rebuild a CkpState, for deep audits and parity checks.  The columns
// hold two lists per node, and with the collector running its passes
// over them took most of the time, so it is paused while they are built.
PyObject *Engine::export_state() const {
  const size_t n = nodes_.size();
  Ref st(check(PyObject_CallNoArgs(CkpStateType)));
  GcPause pause;
  auto set = [&](const char *name, PyObject *value) {
    Ref owned(value);
    if (PyObject_SetAttrString(st.get(), name, owned.get()) < 0) fail();
  };
  set("labels", list_of(n, [&](size_t v) {
        return PyLong_FromLong(nodes_[v].label);
      }));
  set("is_false",
      list_of(n, [&](size_t v) { return new_bool(nodes_[v].is_false); }));
  set("parents", list_of(n, [&](size_t v) {
        const Node &nv = nodes_[v];
        return list_of(nv.npar, [&](size_t j) {
          return PyLong_FromLong(edge_parent_[nv.first + j]);
        });
      }));
  // the lists are newest first; the state's are in insertion order
  set("children", list_of(n, [&](size_t v) {
        Ref list(check(PyList_New(0)));
        for (int32_t e = child_head_[v]; e >= 0; e = edge_next_[e]) {
          Ref c(check(PyLong_FromLong(edge_child_[e])));
          if (PyList_Append(list.get(), c.get()) < 0) fail();
        }
        if (PyList_Reverse(list.get()) < 0) fail();
        return list.release();
      }));
  set("deg_pt",
      list_of(n, [&](size_t v) { return PyLong_FromLong(nodes_[v].deg_pt); }));
  set("deg_ct",
      list_of(n, [&](size_t v) { return PyLong_FromLong(nodes_[v].deg_ct); }));
  set("pf_parent_edges", list_of(n, [&](size_t v) {
        return PyLong_FromLong(nodes_[v].pf_parent);
      }));
  set("pf_total", check(PyLong_FromLongLong(pf_total_)));
  return st.release();
}

// PyEngine.export_bookkeeping's record; ``tree`` is the Fenwick array,
// all capacity + 1 slots.
PyObject *Engine::export_bookkeeping() const {
  const size_t n = nodes_.size();
  Ref pf_child_len(check(PyDict_New()));
  for (size_t v = 0; v < n; ++v) {
    if (pf_child_len_[v] < 0) continue;
    Ref key(check(PyLong_FromSize_t(v)));
    Ref value(check(PyLong_FromLong(pf_child_len_[v])));
    if (PyDict_SetItem(pf_child_len.get(), key.get(), value.get()) < 0)
      fail();
  }
  Ref weights(list_of(static_cast<size_t>(wsize_), [&](size_t i) {
    return PyFloat_FromDouble(weight(static_cast<int32_t>(i)));
  }));
  Ref tree(list_of(tree_.size(), [&](size_t i) {
    return PyFloat_FromDouble(tree_[i]);
  }));
  Ref member(list_of(
      n, [&](size_t v) { return PyLong_FromLong(nodes_[v].member); }));
  Ref zero_since(optional(zero_since_));
  return check(Py_BuildValue(
      "{s:O,s:d,s:L,s:L,s:O,s:[L,L,L],s:O,s:O,s:L,s:O,s:O}", "weights",
      weights.get(), "weight_total", wtotal_, "weight_positive", wpositive_,
      "pt_false", pt_false_, "member", member.get(), "member_count",
      member_count_[0], member_count_[1], member_count_[2], "zero_since",
      zero_since.get(), "stopped", stopped_ ? Py_True : Py_False,
      "step_index", step_index_, "pf_child_len", pf_child_len.get(),
      "tree", tree.get()));
}

// -- the KernelEngine type ----------------------------------------------------

struct KernelObject {
  PyObject_HEAD
  Engine *engine;
};

// Run ``body`` on the engine, turning C++ unwinding into a Python error.
template <typename Body>
PyObject *guarded(PyObject *self, Body body) {
  Engine *engine = reinterpret_cast<KernelObject *>(self)->engine;
  if (engine == nullptr) {
    PyErr_SetString(PyExc_RuntimeError, "KernelEngine is not initialised");
    return nullptr;
  }
  try {
    return body(*engine);
  } catch (const PyError &) {
    return nullptr;
  } catch (const std::bad_alloc &) {
    return PyErr_NoMemory();
  } catch (const std::length_error &) {
    return PyErr_NoMemory();
  }
}

int kernel_init(PyObject *self, PyObject *args, PyObject *kwds) {
  static const char *kwlist[] = {"features", "init_state", "seed",
                                 "audit_cheap", nullptr};
  PyObject *features, *init_state, *seed, *audit_cheap = Py_False;
  if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOO|O:KernelEngine",
                                   const_cast<char **>(kwlist), &features,
                                   &init_state, &seed, &audit_cheap))
    return -1;
  KernelObject *k = reinterpret_cast<KernelObject *>(self);
  try {
    Engine *engine =
        new Engine(features, init_state, seed, truth(audit_cheap));
    delete k->engine;
    k->engine = engine;
    return 0;
  } catch (const PyError &) {
    return -1;
  } catch (const std::bad_alloc &) {
    PyErr_NoMemory();
    return -1;
  } catch (const std::length_error &) {
    PyErr_NoMemory();
    return -1;
  }
}

void kernel_dealloc(PyObject *self) {
  PyTypeObject *type = Py_TYPE(self);
  delete reinterpret_cast<KernelObject *>(self)->engine;
  type->tp_free(self);
  Py_DECREF(type);
}

PyObject *kernel_counts(PyObject *self, PyObject *) {
  return guarded(self, [](Engine &e) { return e.counts(); });
}

PyObject *kernel_run(PyObject *self, PyObject *args, PyObject *kwds) {
  static const char *kwlist[] = {"horizon", "checkpoint_steps", nullptr};
  long long horizon;
  PyObject *checkpoint_steps = nullptr;
  if (!PyArg_ParseTupleAndKeywords(args, kwds, "L|O:run",
                                   const_cast<char **>(kwlist), &horizon,
                                   &checkpoint_steps))
    return nullptr;
  return guarded(self, [&](Engine &e) {
    if (checkpoint_steps != nullptr) return e.run(horizon, checkpoint_steps);
    Ref none(check(PyTuple_New(0)));
    return e.run(horizon, none.get());
  });
}

PyObject *kernel_export_state(PyObject *self, PyObject *) {
  return guarded(self, [](Engine &e) { return e.export_state(); });
}

PyObject *kernel_export_bookkeeping(PyObject *self, PyObject *) {
  return guarded(self, [](Engine &e) { return e.export_bookkeeping(); });
}

PyMethodDef kernel_methods[] = {
    {"counts", kernel_counts, METH_NOARGS,
     "Node, PT, PT False, PF, minimal false and leaf counts."},
    {"run", reinterpret_cast<PyCFunction>(reinterpret_cast<void (*)(void)>(
                kernel_run)),
     METH_VARARGS | METH_KEYWORDS,
     "run(horizon, checkpoint_steps=()): up to horizon steps with the pure "
     "engine's early exit; returns the summary PyEngine.run returns."},
    {"export_state", kernel_export_state, METH_NOARGS,
     "The current state as a CkpState."},
    {"export_bookkeeping", kernel_export_bookkeeping, METH_NOARGS,
     "The incremental bookkeeping, as PyEngine.export_bookkeeping()."},
    {nullptr, nullptr, 0, nullptr}};

PyType_Slot kernel_slots[] = {
    {Py_tp_doc,
     const_cast<char *>(
         "KernelEngine(features, init_state, seed, audit_cheap=False)\n\n"
         "One trajectory of the non-adversarial process, replaying the "
         "pure engine's decision stream.")},
    {Py_tp_new, reinterpret_cast<void *>(PyType_GenericNew)},
    {Py_tp_init, reinterpret_cast<void *>(kernel_init)},
    {Py_tp_dealloc, reinterpret_cast<void *>(kernel_dealloc)},
    {Py_tp_methods, kernel_methods},
    {0, nullptr}};

PyType_Spec kernel_spec = {"ckplab._kernel.KernelEngine",
                           sizeof(KernelObject), 0, Py_TPFLAGS_DEFAULT,
                           kernel_slots};

PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    "_kernel",
    "Compiled trial loop: a draw-for-draw mirror of the pure engine.",
    -1,
    nullptr,
    nullptr,
    nullptr,
    nullptr,
    nullptr};

PyObject *import_attr(const char *module, const char *name) {
  PyObject *mod = PyImport_ImportModule(module);
  if (mod == nullptr) return nullptr;
  PyObject *value = PyObject_GetAttrString(mod, name);
  Py_DECREF(mod);
  return value;
}

}  // namespace

PyMODINIT_FUNC PyInit__kernel(void) {
  if (!(AllWeightsZero = import_attr("ckplab.attachment", "AllWeightsZero")) ||
      !(AuditViolation = import_attr("ckplab.evolution", "AuditViolation")) ||
      !(SurvivalFloor =
            import_attr("ckplab.evolution", "survival_potential_floor")) ||
      !(StateError = import_attr("ckplab.state", "StateError")) ||
      !(VerifyState = import_attr("ckplab.state", "verify_state")) ||
      !(CkpStateType = import_attr("ckplab.state", "CkpState")) ||
      !(Pcg64 = import_attr("ckplab.rand", "pcg64")) ||
      !(AttachmentWeight =
            import_attr("ckplab.attachment", "attachment_weight")))
    return nullptr;
  PyObject *module = PyModule_Create(&kernel_module);
  if (module == nullptr) return nullptr;
  PyObject *type = PyType_FromSpec(&kernel_spec);
  int failed = type == nullptr ||
               PyModule_AddObjectRef(module, "KernelEngine", type) < 0 ||
               PyModule_AddObjectRef(module, "KERNEL_READY", Py_True) < 0;
  Py_XDECREF(type);
  if (failed) {
    Py_DECREF(module);
    return nullptr;
  }
  return module;
}
