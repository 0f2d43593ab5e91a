#include "obs/critpath/critpath.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/log.hh"
#include "obs/event.hh"

namespace prefsim
{
namespace obs
{

const char *
resClassName(ResClass c)
{
    switch (c) {
    case ResClass::Compute: return "compute";
    case ResClass::BusArb: return "bus_arb";
    case ResClass::DataTransfer: return "data_transfer";
    case ResClass::MemoryLatency: return "memory_latency";
    case ResClass::CoherenceInval: return "coherence_inval";
    case ResClass::Lock: return "lock";
    case ResClass::Barrier: return "barrier";
    case ResClass::PrefetchStall: return "prefetch_stall";
    }
    return "unknown";
}

std::optional<ResClass>
resClassFromName(const std::string &name)
{
    for (std::size_t c = 0; c < kNumResClasses; ++c) {
        if (name == resClassName(static_cast<ResClass>(c)))
            return static_cast<ResClass>(c);
    }
    return std::nullopt;
}

CritPathRecorder::CritPathRecorder(unsigned procs, std::string label)
    : procs_(procs), label_(std::move(label)), pieces_(procs),
      spinStartAt_(procs, kNoCycle), barrierArriveAt_(procs, kNoCycle),
      stallPrefStartAt_(procs, kNoCycle)
{
}

void
CritPathRecorder::on(const Event &e)
{
    const Cycle t = e.cycle;
    switch (e.kind) {
      case EventKind::Miss:
      case EventKind::PrefetchIssue: {
        // A data-class transaction entered the queue. A demand miss
        // blocks its requester from now on; an invalidation miss files
        // its refetch latency under coherence, not raw memory latency.
        const bool demand = e.kind == EventKind::Miss;
        Txn x;
        x.waiter = demand ? e.proc : kNoProc;
        x.waitStart = demand ? t : kNoCycle;
        x.line = e.line;
        x.prefetch = !demand;
        x.inval = e.invalidation;
        txns_.put(e.busId, x);
        return;
      }
      case EventKind::BusGrant:
        // Writebacks and other untracked traffic have no entry.
        if (Txn *x = txns_.find(e.busId)) {
            x->readyAt = e.aux;
            x->grantAt = t;
        }
        return;
      case EventKind::LateAttach:
        if (Txn *x = txns_.find(e.busId)) {
            x->waiter = e.proc;
            x->waitStart = t;
        }
        return;
      case EventKind::Fill:
        if (e.demand)
            demandWaitEnd(e.proc, e.busId, t);
        else
            txns_.erase(e.busId); // Nobody waited on it.
        return;
      case EventKind::UpgradeIssue: {
        // The writer blocks until the operation completes. A WriteUpdate
        // rides the data bus, so the grant splits its arbitration wait
        // from the broadcast transfer.
        Txn x;
        x.waiter = e.proc;
        x.waitStart = t;
        x.line = e.line;
        x.upgrade = true;
        x.data = e.data;
        txns_.put(e.busId, x);
        return;
      }
      case EventKind::BusComplete: {
        const Txn *found = txns_.find(e.busId);
        if (!found || !found->upgrade)
            return; // Fills finish at their Fill event.
        const Txn x = *found;
        txns_.erase(e.busId);
        if (!x.data) {
            // Address-class upgrade: pure invalidation traffic.
            emitPiece(x.waiter, x.waitStart, t, ResClass::CoherenceInval,
                      x.line, kNoProc, false);
            return;
        }
        const Cycle g = x.grantAt == kNoCycle ? t : x.grantAt;
        const Cycle a_end = std::min(std::max(g, x.waitStart), t);
        emitPiece(x.waiter, x.waitStart, a_end, ResClass::BusArb, x.line,
                  kNoProc, false);
        emitPiece(x.waiter, a_end, t, ResClass::DataTransfer, x.line,
                  kNoProc, false);
        return;
      }
      case EventKind::StallBegin:
        if (e.stall == Stall::PrefetchBuffer)
            stallPrefStartAt_[e.proc] = t;
        else if (e.stall == Stall::Lock)
            spinStartAt_[e.proc] = t;
        return;
      case EventKind::PrefetchStallEnd:
        closeWait(stallPrefStartAt_, e.proc, t, ResClass::PrefetchStall,
                  kNoProc, /*prefetch=*/true);
        return;
      case EventKind::LockAcquire: {
        const auto it = lockReleaser_.find(e.arg);
        const ProcId pred = it != lockReleaser_.end() && it->second != e.proc
                                ? it->second
                                : kNoProc;
        closeWait(spinStartAt_, e.proc, t, ResClass::Lock, pred, false);
        return;
      }
      case EventKind::LockRelease:
        lockReleaser_[e.arg] = e.proc;
        return;
      case EventKind::BarrierArrive:
        // The last arriver fires before the waiters are released, so
        // their barrier pieces carry the right predecessor.
        if (e.last) {
            lastArriver_ = e.proc;
            episodeEnds_.push_back(t);
        } else {
            barrierArriveAt_[e.proc] = t;
        }
        return;
      case EventKind::BarrierRelease:
        closeWait(barrierArriveAt_, e.proc, t, ResClass::Barrier,
                  lastArriver_ == e.proc ? kNoProc : lastArriver_, false);
        return;
      default:
        return;
    }
}

CritPathRecorder::Txn *
CritPathRecorder::TxnTable::find(std::uint64_t id)
{
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = id & mask; slots_[i].id; i = (i + 1) & mask) {
        if (slots_[i].id == id)
            return &slots_[i].txn;
    }
    return nullptr;
}

void
CritPathRecorder::TxnTable::put(std::uint64_t id, const Txn &txn)
{
    if (Txn *x = find(id)) {
        *x = txn;
        return;
    }
    if (2 * (size_ + 1) > slots_.size()) {
        std::vector<Slot> old(2 * slots_.size());
        old.swap(slots_);
        size_ = 0;
        for (const Slot &s : old) {
            if (s.id)
                put(s.id, s.txn);
        }
    }
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = id & mask;
    while (slots_[i].id)
        i = (i + 1) & mask;
    slots_[i] = Slot{id, txn};
    ++size_;
}

void
CritPathRecorder::TxnTable::erase(std::uint64_t id)
{
    const std::size_t mask = slots_.size() - 1;
    std::size_t hole = id & mask;
    while (slots_[hole].id != id) {
        if (!slots_[hole].id)
            return;
        hole = (hole + 1) & mask;
    }
    // Backward-shift deletion: move each later entry of the probe run
    // into the hole unless its home slot lies cyclically in
    // (hole, j], where moving it would put it before its home.
    for (std::size_t j = (hole + 1) & mask; slots_[j].id;
         j = (j + 1) & mask) {
        const std::size_t home = slots_[j].id & mask;
        const bool stays = hole <= j ? hole < home && home <= j
                                     : hole < home || home <= j;
        if (!stays) {
            slots_[hole] = slots_[j];
            hole = j;
        }
    }
    slots_[hole].id = 0;
    --size_;
}

void
CritPathRecorder::emitPiece(ProcId proc, Cycle start, Cycle end,
                            ResClass cls, Addr line, ProcId pred,
                            bool prefetch)
{
    if (end <= start)
        return;
    auto &chain = pieces_[proc];
    prefsim_assert(chain.empty() || chain.back().end <= start,
                   "critpath pieces must be time-ordered per processor");
    chain.push_back(Piece{start, end, line, pred, cls, prefetch});
}

void
CritPathRecorder::closeWait(std::vector<Cycle> &open, ProcId proc, Cycle now,
                            ResClass cls, ProcId pred, bool prefetch)
{
    const Cycle s = open[proc];
    if (s == kNoCycle)
        return;
    open[proc] = kNoCycle;
    emitPiece(proc, s, now, cls, kNoAddr, pred, prefetch);
}

void
CritPathRecorder::demandWaitEnd(ProcId proc, std::uint64_t id, Cycle now)
{
    const Txn *found = txns_.find(id);
    if (!found)
        return;
    const Txn t = *found;
    txns_.erase(id);
    if (t.waitStart == kNoCycle)
        return;
    // Decompose [waitStart, now) into the memory phase, the arbitration
    // wait and the data transfer; an attach mid-flight clips the early
    // phases away.
    const Cycle s = t.waitStart;
    const Cycle r = t.readyAt == kNoCycle ? s : t.readyAt;
    const Cycle g = t.grantAt == kNoCycle ? now : t.grantAt;
    const ResClass mem_cls =
        t.inval ? ResClass::CoherenceInval : ResClass::MemoryLatency;
    const Cycle m_end = std::min(std::max(r, s), now);
    emitPiece(proc, s, m_end, mem_cls, t.line, kNoProc, t.prefetch);
    const Cycle a_end = std::min(std::max(g, m_end), now);
    emitPiece(proc, m_end, a_end, ResClass::BusArb, t.line, kNoProc,
              t.prefetch);
    emitPiece(proc, a_end, now, ResClass::DataTransfer, t.line, kNoProc,
              t.prefetch);
}

namespace
{

/** Chain-segment accumulator used while walking backwards. */
struct WalkAccum
{
    std::array<std::uint64_t, kNumResClasses> path{};
    std::array<std::uint64_t, kNumResClasses> flagged{};
    std::vector<CritChainSeg> chain; ///< Descending start order.
    std::unordered_map<Addr, std::uint64_t> lineCycles;

    void
    add(ProcId proc, Cycle start, Cycle end, ResClass cls, Addr line,
        bool prefetch)
    {
        if (end <= start)
            return;
        const std::uint64_t len = end - start;
        path[static_cast<std::size_t>(cls)] += len;
        if (prefetch)
            flagged[static_cast<std::size_t>(cls)] += len;
        if (line != kNoAddr && cls != ResClass::Compute)
            lineCycles[line] += len;
        if (!chain.empty()) {
            CritChainSeg &prev = chain.back();
            if (prev.proc == proc && prev.cls == cls &&
                prev.start == end) {
                prev.start = start;
                if (prev.line != line)
                    prev.line = kNoAddr;
                return;
            }
        }
        chain.push_back(CritChainSeg{start, end, proc, cls, line});
    }
};

} // namespace

CritPathRun
CritPathRecorder::take(Cycle warmup_end, Cycle done_at,
                       const std::vector<Cycle> &finished_at)
{
    prefsim_assert(finished_at.size() == procs_,
                   "critpath take: finish vector size mismatch");
    CritPathRun run;
    run.label = label_;
    run.procs = procs_;
    run.warmupEnd = warmup_end;
    run.endCycle = done_at;
    run.totalCycles = done_at > warmup_end ? done_at - warmup_end : 0;
    if (run.totalCycles == 0 || procs_ == 0) {
        for (const char *name :
             {"infinite_bus", "zero_memory_latency", "free_prefetch"})
            run.whatif.push_back(WhatIf{name, run.totalCycles, 1.0, 0});
        return run;
    }

    // Clamp every piece to the measured region, in place (the recorder
    // is spent), and compute machine-wide per-class totals (for slack).
    std::vector<std::vector<Piece>> &clamped = pieces_;
    std::vector<Cycle> finish(procs_);
    std::array<std::uint64_t, kNumResClasses> machine{};
    for (ProcId p = 0; p < procs_; ++p) {
        finish[p] = std::min(std::max(finished_at[p], warmup_end), done_at);
        std::uint64_t waits = 0;
        std::size_t kept = 0;
        for (Piece c : clamped[p]) {
            c.start = std::max(c.start, warmup_end);
            c.end = std::min(c.end, done_at);
            if (c.end <= c.start)
                continue;
            machine[static_cast<std::size_t>(c.cls)] += c.end - c.start;
            waits += c.end - c.start;
            clamped[p][kept++] = c;
        }
        clamped[p].resize(kept);
        const std::uint64_t span = finish[p] - warmup_end;
        machine[static_cast<std::size_t>(ResClass::Compute)] +=
            span > waits ? span - waits : 0;
    }

    // Backward walk from the last retirement. Lock/barrier pieces jump
    // to the processor that caused the wait; everything between pieces
    // is compute. The walk covers [warmup_end, done_at) exactly once.
    ProcId cur = 0;
    for (ProcId p = 1; p < procs_; ++p)
        if (finish[p] > finish[cur])
            cur = p;
    std::vector<std::ptrdiff_t> cursor(procs_);
    for (ProcId p = 0; p < procs_; ++p)
        cursor[p] = static_cast<std::ptrdiff_t>(clamped[p].size()) - 1;

    WalkAccum acc;
    Cycle t = done_at;
    while (t > warmup_end) {
        auto &idx = cursor[cur];
        const auto &chain = clamped[cur];
        while (idx >= 0 && chain[static_cast<std::size_t>(idx)].start >= t)
            --idx;
        if (idx < 0) {
            acc.add(cur, warmup_end, t, ResClass::Compute, kNoAddr,
                    false);
            t = warmup_end;
            break;
        }
        const Piece &pc = chain[static_cast<std::size_t>(idx)];
        const Cycle clipped_end = std::min(pc.end, t);
        acc.add(cur, clipped_end, t, ResClass::Compute, kNoAddr, false);
        acc.add(cur, pc.start, clipped_end, pc.cls, pc.line, pc.prefetch);
        t = pc.start;
        if (pc.pred != kNoProc)
            cur = pc.pred;
    }
    run.pathCycles = acc.path;
    std::uint64_t covered = 0;
    for (const std::uint64_t v : acc.path)
        covered += v;
    prefsim_assert(covered == run.totalCycles,
                   "critpath walk must cover the run exactly");
    for (std::size_t c = 0; c < kNumResClasses; ++c)
        run.slackCycles[c] =
            machine[c] > acc.path[c] ? machine[c] - acc.path[c] : 0;

    // --- What-if estimator --------------------------------------------
    // Episode windows are delimited by barrier releases; inside each
    // window the run can go no faster than the busiest processor after
    // the scenario's cycles are deleted. The path-based bound (total
    // minus on-path removable cycles) is computed too, and the larger
    // of the two predictions wins.
    std::vector<Cycle> bounds;
    bounds.push_back(warmup_end);
    for (const Cycle e : episodeEnds_)
        if (e > warmup_end && e < done_at)
            bounds.push_back(e);
    bounds.push_back(done_at);
    prefsim_assert(std::is_sorted(bounds.begin(), bounds.end()),
                   "critpath barrier episodes out of order");
    const std::size_t num_ep = bounds.size() - 1;

    enum { kInfBus = 0, kZeroMem = 1, kFreePref = 2, kNumScen = 3 };
    // Per (episode, proc): active cycles and per-scenario removable.
    std::vector<std::uint64_t> active(num_ep * procs_, 0);
    std::vector<std::array<std::uint64_t, kNumScen>> removable(
        num_ep * procs_);
    for (ProcId p = 0; p < procs_; ++p) {
        for (std::size_t e = 0; e < num_ep; ++e) {
            const Cycle lo = bounds[e];
            const Cycle hi = std::min(bounds[e + 1], finish[p]);
            active[e * procs_ + p] = hi > lo ? hi - lo : 0;
        }
        // A processor's pieces and the episode bounds both ascend, so
        // each piece scans only the episodes it overlaps.
        std::size_t first = 0;
        for (const Piece &pc : clamped[p]) {
            while (first < num_ep && bounds[first + 1] <= pc.start)
                ++first;
            for (std::size_t e = first; e < num_ep && bounds[e] < pc.end;
                 ++e) {
                const Cycle lo = std::max(pc.start, bounds[e]);
                const Cycle hi = std::min(pc.end, bounds[e + 1]);
                if (hi <= lo)
                    continue;
                const std::uint64_t ov = hi - lo;
                auto &rem = removable[e * procs_ + p];
                if (pc.cls == ResClass::Barrier)
                    active[e * procs_ + p] -=
                        std::min(active[e * procs_ + p], ov);
                if (pc.cls == ResClass::BusArb)
                    rem[kInfBus] += ov;
                if (pc.cls == ResClass::MemoryLatency)
                    rem[kZeroMem] += ov;
                if (pc.prefetch)
                    rem[kFreePref] += ov;
            }
        }
    }
    const auto pathIdx = [](ResClass c) {
        return static_cast<std::size_t>(c);
    };
    std::array<std::uint64_t, kNumScen> path_removable{};
    path_removable[kInfBus] = acc.path[pathIdx(ResClass::BusArb)];
    path_removable[kZeroMem] = acc.path[pathIdx(ResClass::MemoryLatency)];
    for (const std::uint64_t v : acc.flagged)
        path_removable[kFreePref] += v;

    const char *const scen_names[kNumScen] = {
        "infinite_bus", "zero_memory_latency", "free_prefetch"};
    for (int s = 0; s < kNumScen; ++s) {
        std::uint64_t episode_pred = 0;
        for (std::size_t e = 0; e < num_ep; ++e) {
            std::uint64_t best = 0;
            for (ProcId p = 0; p < procs_; ++p) {
                const std::uint64_t act = active[e * procs_ + p];
                const std::uint64_t rem =
                    removable[e * procs_ + p][static_cast<std::size_t>(s)];
                best = std::max(best, act > rem ? act - rem : 0);
            }
            episode_pred += best;
        }
        const std::uint64_t path_pred =
            run.totalCycles -
            std::min(run.totalCycles,
                     path_removable[static_cast<std::size_t>(s)]);
        std::uint64_t pred = std::max(episode_pred, path_pred);
        pred = std::max<std::uint64_t>(pred, 1);
        pred = std::min(pred, run.totalCycles);
        WhatIf w;
        w.scenario = scen_names[s];
        w.predictedCycles = pred;
        w.speedup = static_cast<double>(run.totalCycles) /
                    static_cast<double>(pred);
        run.whatif.push_back(std::move(w));
    }

    // --- Chain and per-line output ------------------------------------
    // Both keep their top K under a strict total order (ties broken by
    // start or address), so selecting them needs no full sort.
    std::reverse(acc.chain.begin(), acc.chain.end());
    constexpr std::size_t kTopChain = 64;
    if (acc.chain.size() > kTopChain) {
        // Longest first; equally long segments keep their time order
        // (the segments tile the path, so starts are distinct).
        std::nth_element(acc.chain.begin(), acc.chain.begin() + kTopChain,
                         acc.chain.end(),
                         [](const CritChainSeg &a, const CritChainSeg &b) {
                             const Cycle la = a.end - a.start;
                             const Cycle lb = b.end - b.start;
                             return la != lb ? la > lb : a.start < b.start;
                         });
        acc.chain.resize(kTopChain);
        std::sort(acc.chain.begin(), acc.chain.end(),
                  [](const CritChainSeg &a, const CritChainSeg &b) {
                      return a.start < b.start;
                  });
    }
    run.chain = std::move(acc.chain);

    run.lines.assign(acc.lineCycles.begin(), acc.lineCycles.end());
    constexpr std::size_t kTopLines = 256;
    if (run.lines.size() > kTopLines) {
        std::nth_element(run.lines.begin(),
                         run.lines.begin() + kTopLines, run.lines.end(),
                         [](const auto &a, const auto &b) {
                             return a.second != b.second
                                        ? a.second > b.second
                                        : a.first < b.first;
                         });
        run.lines.resize(kTopLines);
    }
    std::sort(run.lines.begin(), run.lines.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    return run;
}

void
CritPathStore::attachValidation(const std::string &key,
                                std::uint64_t actual_cycles)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < runs_.size(); ++i) {
        if (keys_[i] != key || runs_[i].skipped)
            continue;
        for (WhatIf &w : runs_[i].whatif) {
            if (w.scenario != "infinite_bus")
                continue;
            w.actualCycles = actual_cycles;
            w.drift = std::abs(static_cast<double>(w.predictedCycles) -
                               static_cast<double>(actual_cycles)) /
                      static_cast<double>(actual_cycles);
        }
    }
}

void
writeRunJson(JsonWriter &j, const CritPathRun &run)
{
    if (!beginRunJson(j, run))
        return;
    j.key("procs").value(static_cast<std::uint64_t>(run.procs));
    j.key("warmup_end").value(run.warmupEnd);
    j.key("end_cycle").value(run.endCycle);
    j.key("total_cycles").value(run.totalCycles);
    j.key("resources").beginObject();
    for (std::size_t c = 0; c < kNumResClasses; ++c) {
        j.key(resClassName(static_cast<ResClass>(c))).beginObject();
        j.key("cycles").value(run.pathCycles[c]);
        j.key("slack").value(run.slackCycles[c]);
        j.endObject();
    }
    j.endObject();
    j.key("whatif").beginArray();
    for (const WhatIf &w : run.whatif) {
        j.beginObject();
        j.key("scenario").value(w.scenario);
        j.key("predicted_cycles").value(w.predictedCycles);
        j.key("speedup").value(w.speedup);
        if (w.actualCycles > 0) {
            j.key("actual_cycles").value(w.actualCycles);
            j.key("drift").value(w.drift);
        }
        j.endObject();
    }
    j.endArray();
    j.key("chain").beginArray();
    for (const CritChainSeg &seg : run.chain) {
        j.beginObject();
        j.key("start").value(seg.start);
        j.key("end").value(seg.end);
        j.key("proc").value(static_cast<std::uint64_t>(seg.proc));
        j.key("class").value(resClassName(seg.cls));
        j.key("cycles").value(seg.end - seg.start);
        if (seg.line != kNoAddr)
            j.key("line").value(seg.line);
        j.endObject();
    }
    j.endArray();
    j.key("lines").beginArray();
    for (const auto &[addr, cycles] : run.lines) {
        j.beginObject();
        j.key("line").value(addr);
        j.key("cycles").value(cycles);
        j.endObject();
    }
    j.endArray();
    j.endObject();
}

namespace
{

/** The class named by string field @p f; FormatError if unknown. */
ResClass
readClass(const JsonField &f, const char *what)
{
    const std::optional<ResClass> cls = resClassFromName(f.str());
    if (!cls)
        throw FormatError(f.path() + ": unknown " + what + " \"" +
                          f.str() + "\"");
    return *cls;
}

void
readRunBody(const JsonField &j, CritPathRun &run)
{
    run.procs = static_cast<unsigned>(
        j["procs"].u64(std::numeric_limits<unsigned>::max()));
    run.warmupEnd = j["warmup_end"].u64();
    run.endCycle = j["end_cycle"].u64();
    run.totalCycles = j["total_cycles"].u64();

    // Exactly the closed class set: no unknown key, none missing.
    const JsonField resources = j["resources"];
    for (const auto &[name, r] : resources.members()) {
        if (!resClassFromName(name))
            throw FormatError(r.path() + ": unknown resource class");
    }
    for (std::size_t c = 0; c < kNumResClasses; ++c) {
        const char *name = resClassName(static_cast<ResClass>(c));
        const std::optional<JsonField> r = resources.find(name);
        if (!r)
            throw FormatError(resources.path() +
                              ": missing resource class \"" + name +
                              "\"");
        run.pathCycles[c] = (*r)["cycles"].u64();
        run.slackCycles[c] = (*r)["slack"].u64();
    }

    for (const JsonField &jw : formatArray(j, "whatif")) {
        WhatIf w;
        w.scenario = jw["scenario"].str();
        w.predictedCycles = jw["predicted_cycles"].u64();
        w.speedup = jw["speedup"].number();
        if (const std::optional<JsonField> drift = jw.find("drift")) {
            w.drift = drift->number();
            w.actualCycles = jw["actual_cycles"].u64();
        }
        run.whatif.push_back(std::move(w));
    }

    for (const JsonField &js : formatArray(j, "chain")) {
        CritChainSeg seg;
        seg.start = js["start"].u64();
        seg.end = js["end"].u64();
        if (js["cycles"].u64() != seg.end - seg.start)
            throw FormatError(js.path() +
                              ": chain segment cycles != end - start");
        seg.cls = readClass(js["class"], "chain class");
        seg.proc = static_cast<ProcId>(
            js["proc"].u64(std::numeric_limits<ProcId>::max()));
        if (const std::optional<JsonField> line = js.find("line"))
            seg.line = line->u64();
        run.chain.push_back(seg);
    }

    for (const JsonField &jl : formatArray(j, "lines"))
        run.lines.emplace_back(jl["line"].u64(), jl["cycles"].u64());
}

} // namespace

std::vector<CritPathRun>
readCritPathJson(const JsonValue &doc)
{
    return readRunsJson<CritPathRun>(doc, readRunBody);
}

std::vector<CritPathRun>
loadCritPathJson(const std::string &path)
{
    return loadRunsJson<CritPathRun>(path, readRunBody);
}

} // namespace obs
} // namespace prefsim
