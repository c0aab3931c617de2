#include "analysis/sanitizer.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <unordered_set>
#include <utility>

#include "set/sanitize.hpp"

namespace neon::analysis {

namespace {

using set::sanitize::AccessObs;
using set::sanitize::Entry;

/// What the container declared about one uid.
struct DeclFacts
{
    bool declared = false;
    bool write = false;
    bool stencil = false;
    bool scalar = false;
};

DeclFacts factsFor(const Entry& e, uint64_t uid)
{
    DeclFacts f;
    for (const auto& a : e.declared) {
        if (a.uid != uid) {
            continue;
        }
        f.declared = true;
        f.write = f.write || a.access == Access::WRITE;
        f.stencil = f.stencil || a.compute == Compute::STENCIL;
        f.scalar = f.scalar || a.scalar;
    }
    return f;
}

Violation make(ViolationKind kind, const Entry& e, std::string msg)
{
    Violation v;
    v.kind = kind;
    v.message = std::move(msg);
    v.containerA = e.container;
    v.device = e.dev;
    return v;
}

std::string where(const Entry& e, const std::string& dataName)
{
    std::ostringstream os;
    os << e.container << " @ dev " << e.dev << ": '" << dataName << "'";
    return os.str();
}

/// Diff one (container, device) entry: observations aggregated per uid (in
/// load order) against the declared access list.
void diffEntry(const Entry& e, AnalysisReport& rep)
{
    std::vector<uint64_t>           order;
    std::map<uint64_t, AccessObs>   byUid;
    std::map<uint64_t, std::string> nameOf;
    const size_t n = e.loads.size() < e.obs.size() ? e.loads.size() : e.obs.size();
    for (size_t i = 0; i < n; ++i) {
        const auto& lm = e.loads[i];
        auto [it, fresh] = byUid.try_emplace(lm.uid);
        if (fresh) {
            order.push_back(lm.uid);
            nameOf[lm.uid] = lm.name;
        }
        it->second.merge(e.obs[i]);
    }
    for (const uint64_t uid : order) {
        const AccessObs& o = byUid[uid];
        ++rep.pairsChecked;
        if (!o.touched()) {
            continue;  // overdeclaration is judged across all devices
        }
        const DeclFacts    d = factsFor(e, uid);
        const std::string& nm = nameOf[uid];
        if (!d.declared) {
            if (o.read) {
                rep.violations.push_back(make(
                    ViolationKind::UndeclaredRead, e,
                    where(e, nm) + " read without a declared access (loadUnchecked?)"));
            }
            if (o.written) {
                rep.violations.push_back(make(
                    ViolationKind::UndeclaredWrite, e,
                    where(e, nm) + " written without a declared access (loadUnchecked?)"));
            }
        } else {
            if (o.written && !d.write) {
                rep.violations.push_back(make(ViolationKind::WriteViaReadAccess, e,
                                              where(e, nm) + " written via a READ-declared access"));
            }
            if (o.stencil && !d.stencil && !d.scalar) {
                rep.violations.push_back(
                    make(ViolationKind::UndeclaredStencil, e,
                         where(e, nm) + " neighbour-read but declared Compute::MAP — derived "
                                        "schedules run no halo update (stale-halo bug)"));
            }
        }
        if (o.stencil && o.maxExtent > e.haloRadius) {
            std::ostringstream os;
            os << where(e, nm) << " neighbour offset extent " << o.maxExtent
               << " exceeds the halo radius " << e.haloRadius;
            rep.violations.push_back(make(ViolationKind::StencilRadiusExceeded, e, os.str()));
        }
        if (o.invalidNgh) {
            rep.violations.push_back(
                make(ViolationKind::InvalidNghRead, e,
                     where(e, nm) + " read through an invalid neighbour handle (test "
                                    "NghCell::isValid before reading)"));
        }
        if (o.outOfSpan) {
            std::ostringstream os;
            os << where(e, nm) << " written outside the launched span (slot " << o.outOfSpanSlot
               << ")";
            rep.violations.push_back(make(ViolationKind::OutOfSpanWrite, e, os.str()));
        }
    }
}

/// OverdeclaredAccess is a per-container verdict: a declared uid that no
/// device's kernel ever touched. (A uid touched on some devices only is
/// fine — boundary-empty partitions legitimately skip work.)
void diffOverdeclared(const std::vector<Entry>& entries, AnalysisReport& rep)
{
    std::map<uint64_t, std::vector<const Entry*>> bySeq;
    for (const Entry& e : entries) {
        bySeq[e.seq].push_back(&e);
    }
    std::vector<std::pair<std::string, uint64_t>> groups;
    groups.reserve(bySeq.size());
    for (const auto& [seq, group] : bySeq) {
        groups.emplace_back(group.front()->container, seq);
    }
    std::sort(groups.begin(), groups.end());
    for (const auto& [name, seq] : groups) {
        const auto& group = bySeq[seq];
        const Entry& first = *group.front();
        std::unordered_set<uint64_t> seen;
        for (const auto& a : first.declared) {
            if (!seen.insert(a.uid).second) {
                continue;
            }
            bool touched = false;
            for (const Entry* e : group) {
                const size_t n = e->loads.size() < e->obs.size() ? e->loads.size()
                                                                 : e->obs.size();
                for (size_t i = 0; i < n && !touched; ++i) {
                    touched = e->loads[i].uid == a.uid && e->obs[i].touched();
                }
            }
            if (!touched) {
                Violation v;
                v.kind = ViolationKind::OverdeclaredAccess;
                v.containerA = name;
                v.message = name + ": '" + a.name +
                            "' declared but never touched on any device — the declaration "
                            "only inflates dependency edges";
                rep.violations.push_back(std::move(v));
            }
        }
    }
}

AnalysisReport diffEntries(const std::vector<Entry>& entries)
{
    AnalysisReport rep;
    rep.opsAnalyzed = entries.size();
    for (const Entry& e : entries) {
        diffEntry(e, rep);
    }
    diffOverdeclared(entries, rep);
    return rep;
}

std::atomic<bool> gSanitizeViolationSeen{false};

void sanitizeExitHook()
{
    const AnalysisReport rep = AccessSanitizer::diff();
    reportSanitizeViolations(rep);
    if (gSanitizeViolationSeen.load(std::memory_order_relaxed)) {
        std::fflush(nullptr);
        std::_Exit(4);
    }
}

}  // namespace

AnalysisReport AccessSanitizer::diff()
{
    return diffEntries(set::sanitize::Session::instance().snapshot());
}

AnalysisReport AccessSanitizer::diff(const std::vector<uint64_t>& onlySeqs)
{
    const std::unordered_set<uint64_t> keep(onlySeqs.begin(), onlySeqs.end());
    std::vector<Entry>                 filtered;
    for (Entry& e : set::sanitize::Session::instance().snapshot()) {
        if (keep.count(e.seq) != 0) {
            filtered.push_back(std::move(e));
        }
    }
    return diffEntries(filtered);
}

void AccessSanitizer::reset()
{
    set::sanitize::Session::instance().clear();
}

bool sanitizeEnvEnabled()
{
    return set::sanitize::envEnabled();
}

void reportSanitizeViolations(const AnalysisReport& report)
{
    if (report.clean()) {
        return;
    }
    gSanitizeViolationSeen.store(true, std::memory_order_relaxed);
    std::fprintf(stderr, "[neon-sanitize] %zu violation(s)\n", report.violations.size());
    for (const auto& v : report.violations) {
        std::fprintf(stderr, "[neon-sanitize]   %s: %s\n", to_string(v.kind).c_str(),
                     v.message.c_str());
    }
}

void installSanitizeExitHook()
{
    static std::once_flag once;
    std::call_once(once, [] {
        // Touch the session before registering the hook: function-local
        // statics are destroyed in reverse construction order, so the
        // session outlives the atexit diff below.
        (void)set::sanitize::Session::instance();
        std::atexit(sanitizeExitHook);
    });
}

}  // namespace neon::analysis
