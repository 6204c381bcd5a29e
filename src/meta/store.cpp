#include "meta/store.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace lsdf::meta {

namespace {
// Lookup counters keyed by operation. Function-local statics: handles are
// resolved once per process; the store itself stays registry-free.
obs::Counter& lookup_counter(const char* op) {
  return obs::MetricsRegistry::global().counter("lsdf_meta_lookups_total",
                                                {{"op", op}});
}

using ValueIndex = std::map<AttrValue, std::set<DatasetId>>;

// A predicate an ordered walk can bound: a range, or an equality whose
// numeric value may match int64 and double keys alike. String and bool
// equality are plain bucket lookups.
bool walks(const Predicate& p) {
  if (p.op == CompareOp::kEq) return as_number(p.value).has_value();
  return p.op != CompareOp::kNe && p.op != CompareOp::kContains;
}

// The first int64 key a numeric walk from `lo` must visit: every smaller key
// converts to a double below `lo`. The conversion is exact below 2^53; above
// it rounding lifts a key by at most 512, so the walk starts 2048 lower and
// matches_value skips the extra keys.
std::int64_t int_walk_start(double lo) {
  constexpr double kExact = 9007199254740992.0;  // 2^53
  constexpr double kEdge = 9.2e18;               // just inside int64
  if (!(lo > -kEdge)) return std::numeric_limits<std::int64_t>::min();
  const auto start = static_cast<std::int64_t>(std::floor(std::min(lo, kEdge)));
  return std::abs(lo) < kExact ? start : start - 2048;
}

// Collects into `ids` the datasets under every key of `values` that all of
// `predicates` (those on one attribute, at least one of which walks())
// accept, visiting only the keys their bounds leave possible: a numeric bound walks the int64 and the double
// segment of the variant order, a bool or string bound its own segment.
// Returns false, with `ids` incomplete, once more than `cap` ids are found.
bool walk(const ValueIndex& values,
          const std::vector<const Predicate*>& predicates, std::size_t cap,
          std::vector<DatasetId>& ids) {
  std::optional<std::size_t> segment;  // variant index; numbers use 0
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  const AttrValue* lo_value = nullptr;  // bool/string bounds
  const AttrValue* hi_value = nullptr;
  for (const Predicate* p : predicates) {
    if (p->op == CompareOp::kNe || p->op == CompareOp::kContains) continue;
    const std::optional<double> number = as_number(p->value);
    const std::size_t kind = number ? 0 : p->value.index();
    // No value passes bounds of two types, nor any bound against NaN.
    if ((segment && *segment != kind) || (number && std::isnan(*number))) {
      return true;
    }
    segment = kind;
    const bool lower = p->op == CompareOp::kEq || p->op == CompareOp::kGt ||
                       p->op == CompareOp::kGe;
    const bool upper = p->op == CompareOp::kEq || p->op == CompareOp::kLt ||
                       p->op == CompareOp::kLe;
    if (number) {
      if (lower) lo = std::max(lo, *number);
      if (upper) hi = std::min(hi, *number);
    } else {
      if (lower && (lo_value == nullptr || *lo_value < p->value)) {
        lo_value = &p->value;
      }
      if (upper && (hi_value == nullptr || p->value < *hi_value)) {
        hi_value = &p->value;
      }
    }
  }
  const auto visit = [&](const AttrValue& from, auto past_end) {
    for (auto it = values.lower_bound(from);
         it != values.end() && it->first.index() == from.index() &&
         !past_end(it->first);
         ++it) {
      if (!std::all_of(predicates.begin(), predicates.end(),
                       [&](const Predicate* p) {
                         return matches_value(*p, it->first);
                       })) {
        continue;
      }
      ids.insert(ids.end(), it->second.begin(), it->second.end());
      if (ids.size() > cap) return false;
    }
    return true;
  };
  if (*segment == 0) {
    // int64 -> double never decreases, so both segments end at `hi`.
    const auto above = [hi](const AttrValue& key) {
      return *as_number(key) > hi;
    };
    return visit(AttrValue{int_walk_start(lo)}, above) &&
           visit(AttrValue{lo}, above);
  }
  const AttrValue first = lo_value != nullptr ? *lo_value
                          : *segment == 2     ? AttrValue{false}
                                              : AttrValue{std::string()};
  return visit(first, [hi_value](const AttrValue& key) {
    return hi_value != nullptr && *hi_value < key;
  });
}
}  // namespace

std::string to_display_string(const AttrValue& value) {
  switch (value.index()) {
    case 0: return std::to_string(std::get<std::int64_t>(value));
    case 1: return std::to_string(std::get<double>(value));
    case 2: return std::get<bool>(value) ? "true" : "false";
    default: return std::get<std::string>(value);
  }
}

Status MetadataStore::create_project(const std::string& name, Schema schema) {
  if (name.empty()) return invalid_argument("empty project name");
  if (projects_.contains(name)) {
    return already_exists("project " + name);
  }
  projects_.emplace(name, Project{std::move(schema), {}});
  touch();
  return Status::ok();
}

Result<Schema> MetadataStore::project_schema(const std::string& name) const {
  const auto it = projects_.find(name);
  if (it == projects_.end()) return not_found("project " + name);
  return it->second.schema;
}

std::vector<std::string> MetadataStore::project_names() const {
  std::vector<std::string> names;
  names.reserve(projects_.size());
  for (const auto& [name, project] : projects_) names.push_back(name);
  return names;
}

Status MetadataStore::validate_against_schema(const Schema& schema,
                                              const AttrMap& attrs) const {
  for (const AttrDef& def : schema.attributes) {
    const auto it = attrs.find(def.name);
    if (it == attrs.end()) {
      if (def.required) {
        return invalid_argument("missing required attribute `" + def.name +
                                "`");
      }
      continue;
    }
    if (type_of(it->second) != def.type) {
      return invalid_argument("attribute `" + def.name +
                              "` has the wrong type");
    }
  }
  return Status::ok();
}

Status MetadataStore::check_indexable(const std::string& attr,
                                      const AttrValue& value) {
  // A NaN key would break the strict weak order of the value index that
  // equality lookups and range walks rely on; infinities are refused with it.
  if (const auto* d = std::get_if<double>(&value); d && !std::isfinite(*d)) {
    return invalid_argument("attribute `" + attr + "` is not finite");
  }
  return Status::ok();
}

Result<DatasetId> MetadataStore::register_dataset(Registration reg) {
  const auto project_it = projects_.find(reg.project);
  if (project_it == projects_.end()) {
    return not_found("project " + reg.project);
  }
  if (reg.name.empty()) return invalid_argument("empty dataset name");
  if (project_it->second.by_name.contains(reg.name)) {
    return already_exists(reg.project + "/" + reg.name);
  }
  LSDF_RETURN_IF_ERROR(
      validate_against_schema(project_it->second.schema, reg.basic));
  for (const auto& [attr, value] : reg.basic) {
    LSDF_RETURN_IF_ERROR(check_indexable(attr, value));
  }

  const DatasetId id = next_id_++;
  DatasetRecord record;
  record.id = id;
  record.project = std::move(reg.project);
  record.name = reg.name;
  record.data_uri = std::move(reg.data_uri);
  record.size = reg.size;
  record.checksum = reg.checksum;
  record.basic = std::move(reg.basic);
  record.registered = reg.now;
  for (const auto& [attr, value] : record.basic) {
    attr_index_[attr][value].insert(id);
  }
  project_it->second.by_name.emplace(std::move(reg.name), id);
  total_bytes_ += record.size;
  records_.emplace(id, std::move(record));
  touch();
  emit(MetaEvent{EventKind::kRegistered, id, {}});
  return id;
}

Result<DatasetRecord> MetadataStore::get(DatasetId id) const {
  const DatasetRecord* record = find(id);
  if (record == nullptr) return not_found("dataset #" + std::to_string(id));
  return *record;
}

const DatasetRecord* MetadataStore::find(DatasetId id) const {
  static obs::Counter& lookups = lookup_counter("get");
  lookups.add(1);
  const auto it = records_.find(id);
  return it == records_.end() ? nullptr : &it->second;
}

Result<DatasetId> MetadataStore::find_by_name(const std::string& project,
                                              const std::string& name) const {
  static obs::Counter& lookups = lookup_counter("find_by_name");
  lookups.add(1);
  obs::Tracer& tracer = obs::Tracer::global();
  if (tracer.enabled() && tracer.sim_clocked()) {
    tracer.emit_instant("meta.find_by_name", "meta",
                        {{"name", project + "/" + name}});
  }
  const auto project_it = projects_.find(project);
  if (project_it == projects_.end()) return not_found("project " + project);
  const auto it = project_it->second.by_name.find(name);
  if (it == project_it->second.by_name.end()) {
    return not_found(project + "/" + name);
  }
  return it->second;
}

std::vector<DatasetId> MetadataStore::query(const Query& query) const {
  static obs::Counter& lookups = lookup_counter("query");
  lookups.add(1);
  obs::Tracer& tracer = obs::Tracer::global();
  if (tracer.enabled() && tracer.sim_clocked()) {
    tracer.emit_instant("meta.query", "meta", {});
  }
  std::vector<DatasetId> out;
  const std::size_t limit =
      query.result_limit().value_or(std::numeric_limits<std::size_t>::max());

  // Seed the candidates from the smallest set the indices give, and keep
  // what the seed guarantees (one tag, one equality predicate, or every
  // predicate on one attribute) so it is not checked again.
  struct Seed {
    std::size_t size = std::numeric_limits<std::size_t>::max();
    const std::set<DatasetId>* bucket = nullptr;  // else `walked`
    const std::string* tag = nullptr;
    const Predicate* predicate = nullptr;
    const std::string* attribute = nullptr;
  } seed;
  std::vector<DatasetId> walked;
  const std::vector<Predicate>& predicates = query.predicates();
  for (const std::string& tag : query.tags()) {
    const auto it = tag_index_.find(tag);
    if (it == tag_index_.end()) return out;
    if (it->second.size() < seed.size) {
      seed = {.size = it->second.size(), .bucket = &it->second, .tag = &tag};
    }
  }
  for (const Predicate& p : predicates) {
    const auto attr_it = attr_index_.find(p.attribute);
    if (attr_it == attr_index_.end()) return out;  // nobody has it
    if (p.op != CompareOp::kEq || as_number(p.value)) continue;
    const auto value_it = attr_it->second.find(p.value);
    if (value_it == attr_it->second.end()) return out;
    if (value_it->second.size() < seed.size) {
      seed = {.size = value_it->second.size(),
              .bucket = &value_it->second,
              .predicate = &p};
    }
  }
  // One ordered walk per attribute with a range or numeric-equality
  // predicate; it gives up once it outgrows the best seed so far.
  for (auto p = predicates.begin(); p != predicates.end(); ++p) {
    if (!walks(*p) || std::any_of(predicates.begin(), p, [&](const auto& q) {
          return walks(q) && q.attribute == p->attribute;
        })) {
      continue;
    }
    std::vector<const Predicate*> on_attribute;
    for (const Predicate& q : predicates) {
      if (q.attribute == p->attribute) on_attribute.push_back(&q);
    }
    std::vector<DatasetId> ids;
    if (walk(attr_index_.at(p->attribute), on_attribute, seed.size, ids)) {
      walked = std::move(ids);
      seed = {.size = walked.size(), .attribute = &p->attribute};
    }
  }

  if (seed.size == std::numeric_limits<std::size_t>::max()) {
    // Fallback: only `!=`, `~` or no predicate at all.
    for (const auto& [id, record] : records_) {
      if (out.size() >= limit) break;
      if (query.matches_record(record)) out.push_back(id);
    }
    return out;
  }

  Query rest;  // the part of the query the seed leaves open
  if (query.project()) rest.in_project(*query.project());
  for (const std::string& tag : query.tags()) {
    if (&tag != seed.tag) rest.with_tag(tag);
  }
  for (const Predicate& p : predicates) {
    if (&p == seed.predicate ||
        (seed.attribute != nullptr && p.attribute == *seed.attribute)) {
      continue;
    }
    rest.where(p.attribute, p.op, p.value);
  }
  const bool covered =
      !rest.project() && rest.tags().empty() && rest.predicates().empty();
  const auto select = [&](const auto& ids) {
    for (const DatasetId id : ids) {
      if (out.size() >= limit) break;
      if (covered || rest.matches_record(records_.at(id))) out.push_back(id);
    }
  };
  if (seed.bucket != nullptr) {
    select(*seed.bucket);
  } else {
    std::sort(walked.begin(), walked.end());  // id order, as a scan gives
    select(walked);
  }
  return out;
}

Status MetadataStore::tag(DatasetId id, const std::string& tag) {
  const auto it = records_.find(id);
  if (it == records_.end()) return not_found("dataset #" + std::to_string(id));
  if (tag.empty()) return invalid_argument("empty tag");
  auto& tags = it->second.tags;
  if (std::find(tags.begin(), tags.end(), tag) != tags.end()) {
    return already_exists("tag " + tag);
  }
  tags.push_back(tag);
  tag_index_[tag].insert(id);
  touch();
  emit(MetaEvent{EventKind::kTagged, id, tag});
  return Status::ok();
}

Status MetadataStore::untag(DatasetId id, const std::string& tag) {
  const auto it = records_.find(id);
  if (it == records_.end()) return not_found("dataset #" + std::to_string(id));
  auto& tags = it->second.tags;
  const auto tag_it = std::find(tags.begin(), tags.end(), tag);
  if (tag_it == tags.end()) return not_found("tag " + tag);
  tags.erase(tag_it);
  tag_index_[tag].erase(id);
  touch();
  emit(MetaEvent{EventKind::kUntagged, id, tag});
  return Status::ok();
}

std::vector<DatasetId> MetadataStore::tagged(const std::string& tag) const {
  const auto it = tag_index_.find(tag);
  if (it == tag_index_.end()) return {};
  return {it->second.begin(), it->second.end()};
}

Result<BranchId> MetadataStore::open_branch(DatasetId id, std::string name,
                                            AttrMap parameters, SimTime now) {
  const auto it = records_.find(id);
  if (it == records_.end()) return not_found("dataset #" + std::to_string(id));
  if (name.empty()) return invalid_argument("empty branch name");
  for (const ProcessingBranch& branch : it->second.branches) {
    if (branch.name == name) {
      return already_exists("branch " + name);
    }
  }
  ProcessingBranch branch;
  branch.id = next_branch_id_++;
  branch.name = name;
  branch.parameters = std::move(parameters);
  branch.created = now;
  it->second.branches.push_back(std::move(branch));
  touch();
  emit(MetaEvent{EventKind::kBranchOpened, id, name});
  return it->second.branches.back().id;
}

Status MetadataStore::append_result(DatasetId id, BranchId branch,
                                    std::string result_uri) {
  const auto it = records_.find(id);
  if (it == records_.end()) return not_found("dataset #" + std::to_string(id));
  for (ProcessingBranch& candidate : it->second.branches) {
    if (candidate.id != branch) continue;
    if (candidate.closed) {
      return failed_precondition("branch " + candidate.name + " is closed");
    }
    candidate.results.push_back(result_uri);
    touch();
    emit(MetaEvent{EventKind::kResultAppended, id, std::move(result_uri)});
    return Status::ok();
  }
  return not_found("branch #" + std::to_string(branch));
}

Status MetadataStore::close_branch(DatasetId id, BranchId branch) {
  const auto it = records_.find(id);
  if (it == records_.end()) return not_found("dataset #" + std::to_string(id));
  for (ProcessingBranch& candidate : it->second.branches) {
    if (candidate.id != branch) continue;
    if (candidate.closed) {
      return failed_precondition("branch already closed");
    }
    candidate.closed = true;
    touch();
    return Status::ok();
  }
  return not_found("branch #" + std::to_string(branch));
}

void MetadataStore::note_access(DatasetId id) {
  if (records_.contains(id)) {
    emit(MetaEvent{EventKind::kAccessed, id, {}});
  }
}

void MetadataStore::emit(const MetaEvent& event) const {
  for (const Observer& observer : observers_) observer(event);
}

}  // namespace lsdf::meta
