#include "sim/manifest.hh"

#include "base/logging.hh"
#include "sim/runner.hh"

namespace dvi
{
namespace sim
{

const fields::EnumTokens<comp::EdviPolicy> &
edviPolicyTokenMap()
{
    static const fields::EnumTokens<comp::EdviPolicy> tokens = {
        {"none", comp::EdviPolicy::None},
        {"callsites", comp::EdviPolicy::CallSites},
        {"dense", comp::EdviPolicy::Dense},
    };
    return tokens;
}

const fields::EnumTokens<arch::ExecTier> &
execTierTokenMap()
{
    static const fields::EnumTokens<arch::ExecTier> tokens = {
        {"interp", arch::ExecTier::Interp},
        {"xlate", arch::ExecTier::Xlate},
    };
    return tokens;
}

const fields::EnumTokens<workload::BenchmarkId> &
benchmarkTokenMap()
{
    static const fields::EnumTokens<workload::BenchmarkId> tokens =
        [] {
            fields::EnumTokens<workload::BenchmarkId> t;
            for (workload::BenchmarkId id :
                 workload::allBenchmarks())
                t.emplace_back(workload::benchmarkName(id), id);
            return t;
        }();
    return tokens;
}

void
describeFields(fields::FieldSet &fs, const std::string &prefix,
               BinaryConfig &c)
{
    fs.bindEnum(prefix + "edvi", c.edvi, edviPolicyTokenMap());
}

void
describeFields(fields::FieldSet &fs, const std::string &prefix,
               uarch::DviConfig &c)
{
    fs.bindBool(prefix + "useIdvi", c.useIdvi);
    fs.bindBool(prefix + "useEdvi", c.useEdvi);
    fs.bindBool(prefix + "earlyReclaim", c.earlyReclaim);
    fs.bindBool(prefix + "elimSaves", c.elimSaves);
    fs.bindBool(prefix + "elimRestores", c.elimRestores);
    fs.bindUnsigned(prefix + "lvmStackDepth", c.lvmStackDepth);
}

void
describeFields(fields::FieldSet &fs, const std::string &prefix,
               mem::CacheParams &c)
{
    // `name` is identity, not configuration; it stays fixed.
    fs.bindSize(prefix + "sizeBytes", c.sizeBytes);
    fs.bindUnsigned(prefix + "assoc", c.assoc);
    fs.bindUnsigned(prefix + "lineBytes", c.lineBytes);
    fs.bindUnsigned(prefix + "hitLatency", c.hitLatency);
}

void
describeFields(fields::FieldSet &fs, const std::string &prefix,
               predictor::PredictorParams &p)
{
    fs.bindUnsigned(prefix + "historyBits", p.historyBits);
    fs.bindSize(prefix + "gshareEntries", p.gshareEntries);
    fs.bindSize(prefix + "bimodEntries", p.bimodEntries);
    fs.bindSize(prefix + "chooserEntries", p.chooserEntries);
    fs.bindSize(prefix + "btbEntries", p.btbEntries);
    fs.bindUnsigned(prefix + "rasEntries", p.rasEntries);
}

void
describeFields(fields::FieldSet &fs, const std::string &prefix,
               uarch::CoreConfig &c)
{
    fs.bindUnsigned(prefix + "fetchWidth", c.fetchWidth);
    fs.bindUnsigned(prefix + "decodeWidth", c.decodeWidth);
    fs.bindUnsigned(prefix + "issueWidth", c.issueWidth);
    fs.bindUnsigned(prefix + "commitWidth", c.commitWidth);
    fs.bindUnsigned(prefix + "windowSize", c.windowSize);
    fs.bindUnsigned(prefix + "fetchQueueSize", c.fetchQueueSize);
    fs.bindUnsigned(prefix + "numPhysRegs", c.numPhysRegs);
    fs.bindUnsigned(prefix + "cachePorts", c.cachePorts);
    fs.bindUnsigned(prefix + "intAlus", c.intAlus);
    fs.bindUnsigned(prefix + "intMulDivs", c.intMulDivs);
    fs.bindUnsigned(prefix + "fpAlus", c.fpAlus);
    fs.bindUnsigned(prefix + "fpMulDivs", c.fpMulDivs);
    fs.bindUnsigned(prefix + "memLatency", c.memLatency);
    fs.bindU64(prefix + "maxCycles", c.maxCycles);
    describeFields(fs, prefix + "il1.", c.il1);
    describeFields(fs, prefix + "dl1.", c.dl1);
    describeFields(fs, prefix + "l2.", c.l2);
    describeFields(fs, prefix + "bp.", c.bp);
    // Deliberately unbound: `dvi` (hardware.dvi is authoritative;
    // the runner copies it over before simulating) and `maxInsts`
    // (owned by budget.maxInsts).
}

void
describeFields(fields::FieldSet &fs, const std::string &prefix,
               HardwareConfig &c)
{
    describeFields(fs, prefix + "dvi.", c.dvi);
    describeFields(fs, prefix + "core.", c.core);
}

void
describeFields(fields::FieldSet &fs, const std::string &prefix,
               arch::EmulatorOptions &o)
{
    fs.bindBool(prefix + "trackLiveness", o.trackLiveness);
    fs.bindBool(prefix + "honorEdvi", o.honorEdvi);
    fs.bindBool(prefix + "honorIdvi", o.honorIdvi);
    fs.bindUnsigned(prefix + "lvmStackDepth", o.lvmStackDepth);
    fs.bindBool(prefix + "strictDeadReads", o.strictDeadReads);
    // Throughput-only knob (tiers are proven bit-identical); bound
    // so `--set emu.tier=interp` A/Bs the block translator.
    fs.bindEnum(prefix + "tier", o.tier, execTierTokenMap());
}

void
describeFields(fields::FieldSet &fs, const std::string &prefix,
               RunBudget &b)
{
    fs.bindU64(prefix + "maxInsts", b.maxInsts);
    fs.bindU64(prefix + "quantum", b.quantum);
    fs.bindU64(prefix + "maxWallMs", b.maxWallMs);
    fs.bindU64(prefix + "hardMaxInsts", b.hardMaxInsts);
}

void
describeFields(fields::FieldSet &fs, Scenario &s)
{
    // `runner` validates against the live registry, so a manifest
    // naming a custom runner loads once that runner is registered.
    fields::FieldSet::Field runner;
    runner.path = "runner";
    runner.kind = "enum";
    runner.get = [&s]() { return json::Value(s.runner); };
    runner.set = [&s](const json::Value &v) -> std::string {
        if (!v.isString())
            return std::string("expected a string token, got ") +
                   v.typeName();
        if (!RunnerRegistry::instance().find(v.str())) {
            std::string known;
            for (const std::string &n :
                 RunnerRegistry::instance().names())
                known += known.empty() ? n : ", " + n;
            return "unknown runner '" + v.str() +
                   "' (registered: " + known + ")";
        }
        s.runner = v.str();
        return "";
    };
    fs.add(std::move(runner));

    fs.bindEnum("workload", s.workload, benchmarkTokenMap());

    // `preset` expands into the binary and hardware DVI axes; it is
    // registered (and emitted) before them so later explicit fields
    // win, exactly as applyPreset-then-override does in C++.
    fields::FieldSet::Field preset;
    preset.path = "preset";
    preset.kind = "enum";
    preset.tokens = presetTokens();
    preset.get = [&s]() { return json::Value(s.preset); };
    preset.set = [&s](const json::Value &v) -> std::string {
        if (!v.isString())
            return std::string("expected a string token, got ") +
                   v.typeName();
        if (v.str().empty()) {
            s.preset.clear();
            return "";
        }
        const std::optional<DviPreset> p = parsePreset(v.str());
        if (!p)
            return "unknown preset '" + v.str() + "' (valid: " +
                   presetTokens() + ")";
        applyPreset(s, *p);
        return "";
    };
    fs.add(std::move(preset));

    fs.bindString("label", s.label);
    describeFields(fs, "binary.", s.binary);
    describeFields(fs, "hardware.", s.hardware);
    describeFields(fs, "emu.", s.emu);
    describeFields(fs, "budget.", s.budget);
}

fields::FieldSet
scenarioFields(Scenario &s)
{
    fields::FieldSet fs;
    describeFields(fs, s);
    return fs;
}

json::Value
scenarioToJson(const Scenario &s)
{
    Scenario copy = s;
    return scenarioFields(copy).toJson();
}

json::Value
scenarioToJsonDiff(const Scenario &s)
{
    // The diff baseline is a default scenario with this scenario's
    // preset already applied — mirroring the loader, which sees the
    // `preset` member first and expands it before the explicit
    // fields. Deviations *from the preset* (e.g. fig10's
    // earlyReclaim=false rows) therefore survive the round trip.
    Scenario base;
    if (!s.preset.empty()) {
        if (const std::optional<DviPreset> p = parsePreset(s.preset))
            applyPreset(base, *p);
        // Clearing the stamp keeps `preset` itself in the diff.
        base.preset.clear();
    }
    Scenario copy = s;
    fields::FieldSet fs = scenarioFields(copy);
    fields::FieldSet defaults = scenarioFields(base);
    // Identity fields always appear, so every emitted job answers
    // "what runs on what" without consulting the defaults.
    return fs.toJsonDiff(defaults, {"runner", "workload"});
}

std::string
scenarioFromJson(const json::Value &obj, Scenario &s)
{
    fields::FieldSet fs = scenarioFields(s);
    return fs.applyJson(obj);
}

std::string
manifestToJson(const CampaignManifest &m)
{
    json::Value doc = json::Value::object();
    doc.set("campaign", m.name);
    if (m.profile)
        doc.set("profile", true);
    json::Value jobs = json::Value::array();
    for (const Scenario &s : m.scenarios)
        jobs.push(scenarioToJsonDiff(s));
    doc.set("jobs", std::move(jobs));
    return doc.dump() + "\n";
}

namespace
{

/** String form of an axis value, for row labels. */
std::string
labelToken(const json::Value &v)
{
    switch (v.type()) {
      case json::Value::Type::String: return v.str();
      case json::Value::Type::U64:
        return std::to_string(v.u64());
      case json::Value::Type::F64: return json::formatDouble(v.f64());
      case json::Value::Type::Bool:
        return v.boolean() ? "true" : "false";
      default: return v.typeName();
    }
}

std::string
expandAxes(const json::Value &axes, const Scenario &def,
           std::vector<Scenario> &out)
{
    if (!axes.isArray())
        return std::string("axes: expected an array, got ") +
               axes.typeName();
    out.assign(1, def);
    for (std::size_t a = 0; a < axes.items().size(); ++a) {
        const std::string where = "axes[" + std::to_string(a) + "]";
        const json::Value &axis = axes.items()[a];
        if (!axis.isObject())
            return where + ": expected an object, got " +
                   std::string(axis.typeName());
        const json::Value *path = axis.find("path");
        if (!path || !path->isString())
            return where + ".path: expected a string dotted path";
        const json::Value *values = axis.find("values");
        if (!values || !values->isArray() ||
            values->items().empty())
            return where +
                   ".values: expected a non-empty array of values";
        const json::Value *label = axis.find("label");
        if (label && !label->isBool())
            return where + ".label: expected true or false, got " +
                   std::string(label->typeName());
        const bool labeled = label && label->boolean();
        for (const auto &kv : axis.members())
            if (kv.first != "path" && kv.first != "values" &&
                kv.first != "label")
                return where + "." + kv.first + ": unknown field";

        // Resolve the axis path once: registration order is
        // deterministic, so the field's index is the same in every
        // per-scenario FieldSet built below.
        std::size_t field_index = 0;
        {
            Scenario probe = def;
            fields::FieldSet pfs = scenarioFields(probe);
            const fields::FieldSet::Field *pf =
                pfs.find(path->str());
            if (!pf)
                return where + ".path: unknown field '" +
                       path->str() + "'";
            field_index = static_cast<std::size_t>(
                pf - pfs.fields().data());
        }

        // First-declared axis outermost: each pass expands every
        // scenario built so far across this axis's values.
        std::vector<Scenario> next;
        next.reserve(out.size() * values->items().size());
        for (const Scenario &base : out) {
            for (std::size_t i = 0; i < values->items().size();
                 ++i) {
                Scenario s = base;
                fields::FieldSet fs = scenarioFields(s);
                const std::string err =
                    fs.fields()[field_index].set(
                        values->items()[i]);
                if (!err.empty())
                    return where + ".values[" + std::to_string(i) +
                           "] (" + path->str() + "): " + err;
                if (labeled) {
                    const std::string tok =
                        labelToken(values->items()[i]);
                    s.label += s.label.empty() ? tok : "-" + tok;
                }
                next.push_back(std::move(s));
            }
        }
        out = std::move(next);
    }
    return "";
}

} // namespace

std::string
manifestFromJson(const std::string &text, CampaignManifest &out)
{
    const json::ParseResult parsed = json::parse(text);
    if (!parsed.ok())
        return parsed.error;
    return manifestFromJsonValue(parsed.value, out);
}

std::string
manifestFromJsonValue(const json::Value &doc, CampaignManifest &out)
{
    if (!doc.isObject())
        return std::string(
                   "manifest: expected a top-level object, got ") +
               doc.typeName();

    out.name = "manifest";
    out.profile = false;
    out.scenarios.clear();

    // Unknown top-level keys are diagnosed like any other unknown
    // field: a misspelled job source ("Jobs", "axis") must not
    // silently degrade into the single-defaults campaign.
    // `degraded` appears in reports from fault-tolerant runs; it is
    // accepted (and ignored) here so a degraded report still replays
    // through --manifest.
    for (const auto &kv : doc.members()) {
        if (kv.first != "campaign" && kv.first != "profile" &&
            kv.first != "defaults" && kv.first != "jobs" &&
            kv.first != "axes" && kv.first != "results" &&
            kv.first != "degraded")
            return kv.first + ": unknown manifest field (want "
                              "campaign, profile, defaults, jobs, "
                              "axes, or results)";
    }

    if (const json::Value *name = doc.find("campaign")) {
        if (!name->isString())
            return std::string(
                       "campaign: expected a string, got ") +
                   name->typeName();
        out.name = name->str();
    }
    if (const json::Value *profile = doc.find("profile")) {
        if (!profile->isBool())
            return std::string(
                       "profile: expected true or false, got ") +
                   profile->typeName();
        out.profile = profile->boolean();
    }

    Scenario def;
    if (const json::Value *defaults = doc.find("defaults")) {
        const std::string err = scenarioFromJson(*defaults, def);
        if (!err.empty())
            return "defaults." + err;
    }

    const json::Value *jobs = doc.find("jobs");
    const json::Value *axes = doc.find("axes");
    const json::Value *results = doc.find("results");
    // In a report, "jobs" is the job *count* next to "results";
    // only an array of job objects is a job source.
    if (jobs && !jobs->isArray() && results)
        jobs = nullptr;
    const int sources = (jobs ? 1 : 0) + (axes ? 1 : 0) +
                        (results ? 1 : 0);
    if (sources > 1)
        return "manifest: 'jobs', 'axes', and 'results' are "
               "mutually exclusive";

    if (jobs) {
        if (!jobs->isArray())
            return std::string("jobs: expected an array, got ") +
                   jobs->typeName();
        for (std::size_t i = 0; i < jobs->items().size(); ++i) {
            Scenario s = def;
            const std::string err =
                scenarioFromJson(jobs->items()[i], s);
            if (!err.empty())
                return "jobs[" + std::to_string(i) + "]." + err;
            out.scenarios.push_back(std::move(s));
        }
    } else if (axes) {
        const std::string err = expandAxes(*axes, def,
                                           out.scenarios);
        if (!err.empty())
            return err;
    } else if (results) {
        // A campaign report: provenance makes it a runnable
        // artifact. Each result embeds its resolved scenario —
        // diffed against the built-in defaults, so a "defaults"
        // section cannot apply here and silently honoring half of
        // the document would mislead.
        if (doc.find("defaults"))
            return "defaults: does not combine with a report's "
                   "'results' (use --set to adjust a replay)";
        if (!results->isArray())
            return std::string(
                       "results: expected an array, got ") +
                   results->typeName();
        for (std::size_t i = 0; i < results->items().size(); ++i) {
            const std::string where =
                "results[" + std::to_string(i) + "]";
            const json::Value *scn =
                results->items()[i].find("scenario");
            if (!scn)
                return where + ": missing the 'scenario' object "
                               "(not a provenance-bearing report?)";
            Scenario s;  // reports diff against built-in defaults
            const std::string err = scenarioFromJson(*scn, s);
            if (!err.empty())
                return where + ".scenario." + err;
            out.scenarios.push_back(std::move(s));
        }
    } else {
        out.scenarios.push_back(def);
    }

    if (out.scenarios.empty())
        return "manifest: no jobs (empty job source)";
    return "";
}

} // namespace sim
} // namespace dvi
