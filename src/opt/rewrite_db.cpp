#include "opt/rewrite_db.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <functional>
#include <tuple>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "cost/cost_model.hpp"
#include "cost/disk_cache.hpp"
#include "network/npn.hpp"

namespace t1sfq {

namespace {

/// Truth tables of the four projection functions x0..x3 on 4 variables.
constexpr std::array<uint16_t, 4> kProj{0xAAAA, 0xCCCC, 0xF0F0, 0xFF00};

/// Complements variable \p v of a 4-variable table.
uint16_t tt16_flip(uint16_t t, unsigned v) {
  const unsigned s = 1u << v;
  return static_cast<uint16_t>(((t & kProj[v]) >> s) | ((t & ~kProj[v]) << s));
}

/// Applies a permutation with TruthTable::permute semantics: result variable i
/// behaves as input variable perm[i].
uint16_t tt16_permute(uint16_t t, const std::array<unsigned, 4>& perm) {
  uint16_t r = 0;
  for (unsigned m = 0; m < 16; ++m) {
    unsigned src = 0;
    for (unsigned i = 0; i < 4; ++i) {
      if ((m >> i) & 1) {
        src |= 1u << perm[i];
      }
    }
    if ((t >> src) & 1) {
      r |= static_cast<uint16_t>(1u << m);
    }
  }
  return r;
}

bool tt16_has_var(uint16_t t, unsigned v) { return t != tt16_flip(t, v); }

uint16_t eval_op(GateType op, uint16_t a, uint16_t b, uint16_t c) {
  switch (op) {
    case GateType::Not: return static_cast<uint16_t>(~a);
    case GateType::And2: return a & b;
    case GateType::Or2: return a | b;
    case GateType::Xor2: return a ^ b;
    case GateType::Nand2: return static_cast<uint16_t>(~(a & b));
    case GateType::Nor2: return static_cast<uint16_t>(~(a | b));
    case GateType::Xnor2: return static_cast<uint16_t>(~(a ^ b));
    case GateType::And3: return a & b & c;
    case GateType::Or3: return a | b | c;
    case GateType::Xor3: return a ^ b ^ c;
    case GateType::Maj3: return (a & b) | (a & c) | (b & c);
    default: assert(false); return 0;
  }
}

constexpr std::array<GateType, 6> kBinaryOps{GateType::And2,  GateType::Or2,
                                             GateType::Xor2,  GateType::Nand2,
                                             GateType::Nor2,  GateType::Xnor2};
constexpr std::array<GateType, 4> kTernaryOps{GateType::And3, GateType::Or3,
                                              GateType::Xor3, GateType::Maj3};

/// All 24 permutations of 4 variables, each as a minterm remap table
/// (tt16_permute semantics), built once.
struct PermTables {
  std::vector<std::array<unsigned, 4>> perms;
  std::vector<std::array<uint8_t, 16>> remap;  ///< result minterm -> source minterm
  PermTables() {
    std::array<unsigned, 4> p{0, 1, 2, 3};
    do {
      std::array<uint8_t, 16> r{};
      for (unsigned m = 0; m < 16; ++m) {
        unsigned src = 0;
        for (unsigned i = 0; i < 4; ++i) {
          if ((m >> i) & 1) src |= 1u << p[i];
        }
        r[m] = static_cast<uint8_t>(src);
      }
      perms.push_back(p);
      remap.push_back(r);
    } while (std::next_permutation(p.begin(), p.end()));
  }
};

const PermTables& perm_tables() {
  static const PermTables tables;
  return tables;
}

/// Exact NPN representative of a 4-variable table: minimum over all 768
/// transforms, bit-identical to `npn_canonize` (npn.hpp) on 4 variables —
/// both minimize the same set under the same lexicographic order. The
/// equivalence is pinned by a unit test.
uint16_t npn_rep16(uint16_t t) {
  const PermTables& tables = perm_tables();
  uint16_t best = 0xffff;
  for (unsigned negmask = 0; negmask < 16; ++negmask) {
    uint16_t f = t;
    for (unsigned v = 0; v < 4; ++v) {
      if ((negmask >> v) & 1) f = tt16_flip(f, v);
    }
    for (const auto& remap : tables.remap) {
      uint16_t g = 0;
      for (unsigned m = 0; m < 16; ++m) {
        if ((f >> remap[m]) & 1) g |= static_cast<uint16_t>(1u << m);
      }
      best = std::min<uint16_t>(best, std::min<uint16_t>(g, static_cast<uint16_t>(~g)));
    }
  }
  return best;
}

/// Serialization format version; bump on any layout or GateType change.
constexpr uint32_t kCacheVersion = 5;
constexpr char kCacheMagic[8] = {'T', '1', 'R', 'W', 'D', 'B', '0', '0'};

void put_u16(std::vector<uint8_t>& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v & 0xff));
  out.push_back(static_cast<uint8_t>(v >> 8));
}
void put_u32(std::vector<uint8_t>& out, uint32_t v) {
  put_u16(out, static_cast<uint16_t>(v & 0xffff));
  put_u16(out, static_cast<uint16_t>(v >> 16));
}
void put_u64(std::vector<uint8_t>& out, uint64_t v) {
  put_u32(out, static_cast<uint32_t>(v & 0xffffffffu));
  put_u32(out, static_cast<uint32_t>(v >> 32));
}

struct BlobReader {
  const std::vector<uint8_t>& blob;
  std::size_t pos = 0;
  bool ok = true;
  uint8_t u8() {
    if (pos + 1 > blob.size()) { ok = false; return 0; }
    return blob[pos++];
  }
  uint16_t u16() {
    const uint16_t lo = u8();
    return static_cast<uint16_t>(lo | (static_cast<uint16_t>(u8()) << 8));
  }
  uint32_t u32() {
    const uint32_t lo = u16();
    return lo | (static_cast<uint32_t>(u16()) << 16);
  }
  uint64_t u64() {
    const uint64_t lo = u32();
    return lo | (static_cast<uint64_t>(u32()) << 32);
  }
};

unsigned cell_marginal(const RewriteDb::Params& p, GateType op) {
  return p.lib.jj_cost(op) + p.clock_jj;
}

}  // namespace

uint64_t RewriteDb::Params::signature() const {
  uint64_t h = 14695981039346656037ULL;
  h = fnv64_mix(h, kCacheVersion);
  h = fnv64_mix(h, lib.jj_not);
  h = fnv64_mix(h, lib.jj_and2);
  h = fnv64_mix(h, lib.jj_or2);
  h = fnv64_mix(h, lib.jj_xor2);
  h = fnv64_mix(h, lib.jj_nand2);
  h = fnv64_mix(h, lib.jj_nor2);
  h = fnv64_mix(h, lib.jj_xnor2);
  h = fnv64_mix(h, lib.jj_and3);
  h = fnv64_mix(h, lib.jj_or3);
  h = fnv64_mix(h, lib.jj_xor3);
  h = fnv64_mix(h, lib.jj_maj3);
  h = fnv64_mix(h, clock_jj);
  h = fnv64_mix(h, max_jj);
  h = fnv64_mix(h, npn_index_jj);
  h = fnv64_mix(h, depth_penalty_jj);
  return h;
}

bool RewriteDb::reaches_(uint16_t from, uint16_t target) const {
  // DFS over the current structure references; small (depth <= the structure
  // depth, arity <= 3) and memoized per call via the visited set.
  std::vector<uint16_t> stack{from};
  std::vector<uint16_t> seen;
  while (!stack.empty()) {
    const uint16_t f = stack.back();
    stack.pop_back();
    if (f == target) {
      return true;
    }
    if (std::find(seen.begin(), seen.end(), f) != seen.end()) {
      continue;
    }
    seen.push_back(f);
    const Entry& e = entries_[f];
    switch (e.op) {
      case GateType::Const0:
      case GateType::Const1:
      case GateType::Pi:
        break;
      default:
        for (unsigned i = 0; i < gate_arity(e.op); ++i) {
          stack.push_back(e.operand[i]);
        }
    }
  }
  return false;
}

void RewriteDb::settle_(uint16_t func, uint16_t cost, uint8_t depth, GateType op,
                        uint16_t a, uint16_t b, uint16_t c, unsigned depth_penalty) {
  Entry& e = entries_[func];
  const bool first = e.cost == kUnsettled;
  if (!first) {
    // Composite ranking: a structure that saves depth is worth keeping even
    // at a few more JJ. Replacement never re-buckets (expansion pairs are
    // keyed by the first-settle JJ).
    const uint64_t old_score =
        e.cost + static_cast<uint64_t>(depth_penalty) * e.depth;
    const uint64_t new_score =
        cost + static_cast<uint64_t>(depth_penalty) * depth;
    if (std::tie(old_score, e.cost, e.depth) <= std::tie(new_score, cost, depth)) {
      return;
    }
    // Replacing an already-referenced structure is only sound while the
    // reference graph stays acyclic (instantiate() recurses through it):
    // reject replacements whose operands' current structures reach func.
    const unsigned arity = op == GateType::Not ? 1 : gate_arity(op);
    const std::array<uint16_t, 3> ops{a, b, c};
    for (unsigned i = 0; i < arity; ++i) {
      if (reaches_(ops[i], func)) {
        return;
      }
    }
  }
  e.cost = cost;
  e.depth = depth;
  e.op = op;
  e.operand = {a, b, c};
  if (first) {
    ++num_settled_;
    by_cost_[cost].push_back(func);
  }
}

RewriteDb::RewriteDb(const Params& params) : entries_(1u << 16) {
  by_cost_.resize(params.max_jj + 1);
  not_jj_ = cell_marginal(params, GateType::Not);

  // Cost-0 seeds: constants and projections. `op` doubles as the leaf marker
  // (Pi stores the variable index in operand[0]).
  const unsigned dp = params.depth_penalty_jj;
  settle_(0x0000, 0, 0, GateType::Const0, 0, 0, 0, dp);
  settle_(0xffff, 0, 0, GateType::Const1, 0, 0, 0, dp);
  for (unsigned v = 0; v < 4; ++v) {
    settle_(kProj[v], 0, 0, GateType::Pi, static_cast<uint16_t>(v), 0, 0, dp);
  }

  // JJ-ordered BFS: a structure settled at cost c is composed of one cell
  // (its marginal JJ priced by the library, clock share included) over
  // operands whose settled costs sum to c minus that marginal. Iterating c
  // upward makes the first settlement of every function JJ-optimal within
  // the budget.
  for (unsigned c = 1; c <= params.max_jj; ++c) {
    // Unary: inverter on top of every function at cost c - not_jj.
    if (c >= not_jj_) {
      for (const uint16_t f : by_cost_[c - not_jj_]) {
        if (f == 0x0000 || f == 0xffff) continue;
        const Entry& ef = entries_[f];
        settle_(static_cast<uint16_t>(~f), static_cast<uint16_t>(c),
                static_cast<uint8_t>(ef.depth + 1), GateType::Not, f, 0, 0, dp);
      }
    }
    // Binary: all unordered operand pairs with costs summing to c - op_jj.
    // Constant operands are excluded everywhere: `add_gate` folds a
    // const-fed cell into a smaller one at instantiation (xor2(x,1) becomes
    // a Not), so a structure priced with a constant operand would understate
    // its realized JJ — and every such function is reachable directly.
    const auto is_const_fn = [](uint16_t f) { return f == 0x0000 || f == 0xffff; };
    for (const GateType op : kBinaryOps) {
      const unsigned op_jj = cell_marginal(params, op);
      if (c < op_jj) continue;
      const unsigned rem = c - op_jj;
      for (unsigned i = 0; i + i <= rem; ++i) {
        const unsigned j = rem - i;
        const auto& fi = by_cost_[i];
        const auto& fj = by_cost_[j];
        for (std::size_t x = 0; x < fi.size(); ++x) {
          const std::size_t y0 = (i == j) ? x : 0;
          for (std::size_t y = y0; y < fj.size(); ++y) {
            const uint16_t a = fi[x];
            const uint16_t b = fj[y];
            if (is_const_fn(a) || is_const_fn(b)) continue;
            const uint8_t depth = static_cast<uint8_t>(
                1 + std::max(entries_[a].depth, entries_[b].depth));
            settle_(eval_op(op, a, b, 0), static_cast<uint16_t>(c), depth, op, a, b, 0,
                    dp);
          }
        }
      }
    }
    // Ternary: operand costs summing to c - op_jj, i <= j <= k.
    for (const GateType op : kTernaryOps) {
      const unsigned op_jj = cell_marginal(params, op);
      if (c < op_jj) continue;
      const unsigned rem = c - op_jj;
      for (unsigned i = 0; 3 * i <= rem; ++i) {
        for (unsigned j = i; i + 2 * j <= rem; ++j) {
          const unsigned k = rem - i - j;
          for (const uint16_t a : by_cost_[i]) {
            if (is_const_fn(a)) continue;
            for (const uint16_t b : by_cost_[j]) {
              if (i == j && b < a) continue;
              if (is_const_fn(b)) continue;
              for (const uint16_t cc : by_cost_[k]) {
                if (j == k && cc < b) continue;
                if (is_const_fn(cc)) continue;
                const uint8_t depth = static_cast<uint8_t>(
                    1 + std::max({entries_[a].depth, entries_[b].depth,
                                  entries_[cc].depth}));
                settle_(eval_op(op, a, b, cc), static_cast<uint16_t>(c), depth, op, a,
                        b, cc, dp);
              }
            }
          }
        }
      }
    }
  }

  finalize_costs_(params);

  // NPN class index over the cheap entries: representative table -> member.
  // Only low-cost members are indexed; a fallback hit bridges with inverters,
  // so expensive members would rarely win against the MFFC they replace.
  for (unsigned c = 0; c <= std::min(params.npn_index_jj, params.max_jj); ++c) {
    for (const uint16_t f : by_cost_[c]) {
      npn_index_.push_back({npn_rep16(f), f});
    }
  }
  // Keep the cheapest member per representative (ties broken by table value,
  // so the index is deterministic).
  std::sort(npn_index_.begin(), npn_index_.end(),
            [this](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              if (entries_[a.second].cost != entries_[b.second].cost) {
                return entries_[a.second].cost < entries_[b.second].cost;
              }
              return a.second < b.second;
            });
  npn_index_.erase(std::unique(npn_index_.begin(), npn_index_.end(),
                               [](const auto& a, const auto& b) { return a.first == b.first; }),
                   npn_index_.end());
  by_cost_.clear();
  by_cost_.shrink_to_fit();
}

void RewriteDb::finalize_costs_(const Params& params) {
  // Score-based re-settling can replace an operand's structure after a
  // parent recorded its cost, so the BFS-time cost/depth fields may
  // understate what instantiate() actually builds. Recompute both from the
  // final structures, bottom-up, so `jj_cost` is again a true upper bound on
  // the realized JJ (cut rewriting's commit criterion relies on it).
  // Acyclicity is enforced at replacement time in settle_.
  std::vector<uint8_t> state(entries_.size(), 0);  // 0 fresh, 1 visiting, 2 done
  const std::function<void(uint16_t)> visit = [&](uint16_t func) {
    Entry& e = entries_[func];
    if (e.cost == kUnsettled || state[func] == 2) {
      return;
    }
    assert(state[func] != 1 && "rewrite-db structure references cycle");
    state[func] = 1;
    switch (e.op) {
      case GateType::Const0:
      case GateType::Const1:
      case GateType::Pi:
        break;
      default: {
        const unsigned arity = gate_arity(e.op);
        unsigned total = cell_marginal(params, e.op);
        uint8_t depth = 0;
        for (unsigned i = 0; i < arity; ++i) {
          visit(e.operand[i]);
          total += entries_[e.operand[i]].cost;
          depth = std::max(depth, entries_[e.operand[i]].depth);
        }
        e.cost = static_cast<uint16_t>(total);
        e.depth = static_cast<uint8_t>(depth + 1);
      }
    }
    state[func] = 2;
  };
  for (uint32_t func = 0; func < entries_.size(); ++func) {
    visit(static_cast<uint16_t>(func));
  }
}

RewriteDb::RewriteDb(std::vector<Entry> entries,
                     std::vector<std::pair<uint16_t, uint16_t>> npn_index,
                     std::size_t settled, unsigned not_jj)
    : entries_(std::move(entries)),
      num_settled_(settled),
      not_jj_(not_jj),
      npn_index_(std::move(npn_index)) {}

std::vector<uint8_t> RewriteDb::serialize(const Params& params) const {
  std::vector<uint8_t> blob;
  blob.reserve(36 + num_settled_ * 12 + npn_index_.size() * 4);
  blob.insert(blob.end(), kCacheMagic, kCacheMagic + sizeof(kCacheMagic));
  put_u32(blob, kCacheVersion);
  put_u64(blob, params.signature());
  put_u32(blob, static_cast<uint32_t>(num_settled_));
  put_u32(blob, static_cast<uint32_t>(npn_index_.size()));
  put_u64(blob, 0);  // payload checksum, patched below
  const std::size_t payload_start = blob.size();
  for (uint32_t func = 0; func < entries_.size(); ++func) {
    const Entry& e = entries_[func];
    if (e.cost == kUnsettled) continue;
    put_u16(blob, static_cast<uint16_t>(func));
    put_u16(blob, e.cost);
    blob.push_back(e.depth);
    blob.push_back(static_cast<uint8_t>(e.op));
    put_u16(blob, e.operand[0]);
    put_u16(blob, e.operand[1]);
    put_u16(blob, e.operand[2]);
  }
  for (const auto& [rep, member] : npn_index_) {
    put_u16(blob, rep);
    put_u16(blob, member);
  }
  // FNV-1a over the payload: header checks alone cannot catch a bit-flipped
  // operand, which would silently instantiate the wrong function.
  uint64_t sum = 14695981039346656037ULL;
  for (std::size_t i = payload_start; i < blob.size(); ++i) {
    sum = fnv64_mix(sum, blob[i]);
  }
  for (unsigned b = 0; b < 8; ++b) {
    blob[payload_start - 8 + b] = static_cast<uint8_t>(sum >> (8 * b));
  }
  return blob;
}

std::optional<RewriteDb> RewriteDb::deserialize(const std::vector<uint8_t>& blob,
                                                const Params& params) {
  BlobReader r{blob};
  char magic[8];
  for (char& ch : magic) {
    ch = static_cast<char>(r.u8());
  }
  if (!r.ok || std::memcmp(magic, kCacheMagic, sizeof(kCacheMagic)) != 0) {
    return std::nullopt;
  }
  if (r.u32() != kCacheVersion || r.u64() != params.signature()) {
    return std::nullopt;
  }
  const uint32_t settled = r.u32();
  const uint32_t npn_count = r.u32();
  const uint64_t checksum = r.u64();
  if (!r.ok || blob.size() != r.pos + 12ull * settled + 4ull * npn_count) {
    return std::nullopt;
  }
  uint64_t sum = 14695981039346656037ULL;
  for (std::size_t i = r.pos; i < blob.size(); ++i) {
    sum = fnv64_mix(sum, blob[i]);
  }
  if (sum != checksum) {
    return std::nullopt;
  }
  std::vector<Entry> entries(1u << 16);
  for (uint32_t i = 0; i < settled; ++i) {
    const uint16_t func = r.u16();
    Entry e;
    e.cost = r.u16();
    e.depth = r.u8();
    e.op = static_cast<GateType>(r.u8());
    e.operand = {r.u16(), r.u16(), r.u16()};
    // Finalized costs can exceed the BFS bucket budget by a few JJ (operand
    // structures re-settled shallower-but-pricier), so bound loosely.
    if (e.cost == kUnsettled || e.cost > 4 * params.max_jj ||
        static_cast<uint8_t>(e.op) > static_cast<uint8_t>(GateType::T1Port) ||
        entries[func].cost != kUnsettled) {
      return std::nullopt;
    }
    entries[func] = e;
  }
  std::vector<std::pair<uint16_t, uint16_t>> npn_index(npn_count);
  for (auto& [rep, member] : npn_index) {
    rep = r.u16();
    member = r.u16();
  }
  if (!r.ok) {
    return std::nullopt;
  }
  // The NPN index must be sorted (lookup uses lower_bound) and point at
  // settled members only.
  for (std::size_t i = 0; i < npn_index.size(); ++i) {
    if (entries[npn_index[i].second].cost == kUnsettled ||
        (i > 0 && npn_index[i].first <= npn_index[i - 1].first)) {
      return std::nullopt;
    }
  }
  return RewriteDb(std::move(entries), std::move(npn_index), settled,
                   cell_marginal(params, GateType::Not));
}

std::string RewriteDb::cache_file_name(const Params& params) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "rewrite_db_v%u_%016llx.bin", kCacheVersion,
                static_cast<unsigned long long>(params.signature()));
  return buf;
}

const RewriteDb& RewriteDb::instance(const Params& params) {
  static std::mutex mu;
  static std::unordered_map<uint64_t, std::unique_ptr<const RewriteDb>> registry;
  std::lock_guard<std::mutex> lock(mu);
  auto& slot = registry[params.signature()];
  if (!slot) {
    const std::string dir = cache_directory();
    const std::string path = dir.empty() ? "" : dir + "/" + cache_file_name(params);
    if (!path.empty()) {
      if (const auto blob = read_blob(path)) {
        if (auto db = deserialize(*blob, params)) {
          slot.reset(new RewriteDb(std::move(*db)));
        } else {
          // Read fine but failed the version/signature/checksum gate.
          DiskCache::note_corruption_fallback();
        }
      }
    }
    if (!slot) {
      auto built = std::unique_ptr<RewriteDb>(new RewriteDb(params));
      if (!path.empty()) {
        write_blob(path, built->serialize(params));
      }
      slot = std::move(built);
    }
  }
  return *slot;
}

std::optional<unsigned> RewriteDb::cost(uint16_t func) const {
  if (entries_[func].cost == kUnsettled) {
    return std::nullopt;
  }
  return entries_[func].cost;
}

std::optional<RewriteMatch> RewriteDb::match(uint64_t word, unsigned num_vars) const {
  if (num_vars > 4) {
    return std::nullopt;
  }
  word &= (uint64_t{1} << (1u << num_vars)) - 1;
  for (unsigned v = num_vars; v < 4; ++v) {
    word |= word << (1u << v);  // the added variables are don't-cares
  }
  const uint16_t target = static_cast<uint16_t>(word);

  if (entries_[target].cost != kUnsettled) {
    RewriteMatch m;
    m.func = target;
    m.jj_cost = entries_[target].cost;
    m.depth = entries_[target].depth;
    return m;
  }

  // NPN fallback: same class representative as an indexed member?
  TruthTable tt(4);
  tt.set_word(0, target);
  const uint16_t rep = static_cast<uint16_t>(npn_canonize(tt).representative.word(0));
  const auto it = std::lower_bound(npn_index_.begin(), npn_index_.end(),
                                   std::make_pair(rep, uint16_t{0}));
  if (it == npn_index_.end() || it->first != rep) {
    return std::nullopt;
  }
  const uint16_t g = it->second;

  // Find the concrete transform target = out ^ permute(flip(g)). Brute force
  // over the 768 NPN transforms of g; one must hit, both share a class rep.
  std::array<unsigned, 4> perm{0, 1, 2, 3};
  do {
    for (unsigned negmask = 0; negmask < 16; ++negmask) {
      uint16_t t = g;
      for (unsigned v = 0; v < 4; ++v) {
        if ((negmask >> v) & 1) {
          t = tt16_flip(t, v);
        }
      }
      t = tt16_permute(t, perm);
      for (int out = 0; out < 2; ++out) {
        const uint16_t cand = out ? static_cast<uint16_t>(~t) : t;
        if (cand != target) {
          continue;
        }
        // target(x) = out ^ g(u) with g input j = x[perm^-1[j]] ^ neg[j];
        // inverters only matter on variables g actually depends on.
        RewriteMatch m;
        m.func = g;
        m.output_neg = out != 0;
        unsigned bridge = out ? 1u : 0u;
        std::array<unsigned, 4> inv_perm{};
        for (unsigned i = 0; i < 4; ++i) {
          inv_perm[perm[i]] = i;
        }
        for (unsigned j = 0; j < 4; ++j) {
          m.input_leaf[j] = static_cast<uint8_t>(inv_perm[j]);
          m.input_neg[j] = ((negmask >> j) & 1) && tt16_has_var(g, j);
          bridge += m.input_neg[j] ? 1 : 0;
        }
        // Every bridge inverter is a real clocked cell at the Not marginal.
        m.jj_cost = entries_[g].cost + bridge * not_jj_;
        m.depth = entries_[g].depth + (m.output_neg ? 1 : 0) +
                  (bridge > (m.output_neg ? 1u : 0u) ? 1 : 0);
        return m;
      }
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
  assert(false && "NPN index inconsistent with canonizer");
  return std::nullopt;
}

NodeId RewriteDb::build_(uint16_t func, const std::array<NodeId, 4>& inputs,
                         Network& net) const {
  const Entry& e = entries_[func];
  assert(e.cost != kUnsettled && "instantiating an unsettled function");
  switch (e.op) {
    case GateType::Const0: return net.get_const0();
    case GateType::Const1: return net.get_const1();
    case GateType::Pi: return inputs[e.operand[0]];
    default: break;
  }
  const unsigned arity = gate_arity(e.op);
  std::vector<NodeId> fanins;
  fanins.reserve(arity);
  for (unsigned i = 0; i < arity; ++i) {
    fanins.push_back(build_(e.operand[i], inputs, net));
  }
  return net.add_gate(e.op, fanins);
}

NodeId RewriteDb::instantiate(const RewriteMatch& match, const std::vector<NodeId>& leaves,
                              Network& net) const {
  std::array<NodeId, 4> inputs{};
  for (unsigned j = 0; j < 4; ++j) {
    const unsigned leaf = match.input_leaf[j];
    NodeId in = leaf < leaves.size() ? leaves[leaf] : net.get_const0();
    if (match.input_neg[j]) {
      in = net.add_not(in);
    }
    inputs[j] = in;
  }
  NodeId root = build_(match.func, inputs, net);
  if (match.output_neg) {
    root = net.add_not(root);
  }
  return root;
}

}  // namespace t1sfq
