#include "meta/query.h"

#include <algorithm>

namespace lsdf::meta {
namespace {

template <typename T>
bool compare(CompareOp op, const T& lhs, const T& rhs) {
  switch (op) {
    case CompareOp::kEq: return lhs == rhs;
    case CompareOp::kNe: return lhs != rhs;
    case CompareOp::kLt: return lhs < rhs;
    case CompareOp::kLe: return lhs <= rhs;
    case CompareOp::kGt: return lhs > rhs;
    case CompareOp::kGe: return lhs >= rhs;
    case CompareOp::kContains: return false;  // only meaningful for strings
  }
  return false;
}

}  // namespace

std::optional<double> as_number(const AttrValue& value) {
  if (const auto* i = std::get_if<std::int64_t>(&value)) {
    return static_cast<double>(*i);
  }
  if (const auto* d = std::get_if<double>(&value)) return *d;
  return std::nullopt;
}

bool matches_value(const Predicate& predicate, const AttrValue& actual) {
  // Allow int/double cross-comparison; otherwise require identical types.
  if (std::holds_alternative<std::string>(actual) &&
      std::holds_alternative<std::string>(predicate.value)) {
    const auto& lhs = std::get<std::string>(actual);
    const auto& rhs = std::get<std::string>(predicate.value);
    if (predicate.op == CompareOp::kContains) {
      return lhs.find(rhs) != std::string::npos;
    }
    return compare(predicate.op, lhs, rhs);
  }
  if (const auto lhs = as_number(actual)) {
    if (const auto rhs = as_number(predicate.value)) {
      return compare(predicate.op, *lhs, *rhs);
    }
    return false;
  }
  if (std::holds_alternative<bool>(actual) &&
      std::holds_alternative<bool>(predicate.value)) {
    return compare(predicate.op, std::get<bool>(actual),
                   std::get<bool>(predicate.value));
  }
  return false;
}

bool matches(const Predicate& predicate, const AttrMap& attrs) {
  const auto it = attrs.find(predicate.attribute);
  return it != attrs.end() && matches_value(predicate, it->second);
}

bool Query::matches_record(const DatasetRecord& record) const {
  if (project_ && record.project != *project_) return false;
  for (const auto& tag : tags_) {
    if (std::find(record.tags.begin(), record.tags.end(), tag) ==
        record.tags.end()) {
      return false;
    }
  }
  return std::all_of(
      predicates_.begin(), predicates_.end(),
      [&](const Predicate& p) { return meta::matches(p, record.basic); });
}

namespace {
const char* op_token(CompareOp op) {
  switch (op) {
    case CompareOp::kEq: return "==";
    case CompareOp::kNe: return "!=";
    case CompareOp::kLt: return "<";
    case CompareOp::kLe: return "<=";
    case CompareOp::kGt: return ">";
    case CompareOp::kGe: return ">=";
    case CompareOp::kContains: return "~";
  }
  return "?";
}
}  // namespace

std::string cache_key(const Query& query) {
  std::string key = "project=";
  if (query.project()) key += *query.project();
  std::vector<std::string> tags = query.tags();
  std::sort(tags.begin(), tags.end());
  for (const std::string& tag : tags) key += "|tag=" + tag;
  std::vector<std::string> predicates;
  predicates.reserve(query.predicates().size());
  for (const Predicate& predicate : query.predicates()) {
    // The variant index disambiguates values whose display forms collide
    // (int64 1 vs bool true vs string "1").
    predicates.push_back(predicate.attribute + op_token(predicate.op) +
                         std::to_string(predicate.value.index()) + ":" +
                         to_display_string(predicate.value));
  }
  std::sort(predicates.begin(), predicates.end());
  for (const std::string& predicate : predicates) key += "|where=" + predicate;
  key += "|limit=";
  if (query.result_limit()) key += std::to_string(*query.result_limit());
  return key;
}

}  // namespace lsdf::meta
