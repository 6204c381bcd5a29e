// Catalogue persistence: a stable, line-oriented, tab-separated format.
//
// Record kinds (first field):
//   project \t <name>
//   schema  \t <project> \t <attr> \t <type> \t <required>
//   dataset \t <id> \t <project> \t <name> \t <uri> \t <size> \t <crc>
//           \t <registered_ns>
//   attr    \t <dataset> \t <key> \t <type> \t <value>
//   tag     \t <dataset> \t <tag>
//   branch  \t <dataset> \t <branch> \t <name> \t <closed> \t <created_ns>
//   bparam  \t <dataset> \t <branch> \t <key> \t <type> \t <value>
//   result  \t <dataset> \t <branch> \t <uri>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "common/config.h"
#include "meta/store.h"

namespace lsdf::meta {
namespace {

constexpr char kSep = '\t';

const char* type_tag(AttrType type) {
  switch (type) {
    case AttrType::kInt: return "int";
    case AttrType::kDouble: return "double";
    case AttrType::kBool: return "bool";
    case AttrType::kString: return "string";
  }
  return "string";
}

Result<AttrType> parse_type(const std::string& tag) {
  if (tag == "int") return AttrType::kInt;
  if (tag == "double") return AttrType::kDouble;
  if (tag == "bool") return AttrType::kBool;
  if (tag == "string") return AttrType::kString;
  return invalid_argument("unknown attribute type `" + tag + "`");
}

void write_value(std::ostream& out, const AttrValue& value) {
  out << type_tag(type_of(value)) << kSep;
  switch (value.index()) {
    case 0: out << std::get<std::int64_t>(value); break;
    case 1: {
      // Hex float keeps doubles bit-exact across the round trip.
      char buffer[40];
      std::snprintf(buffer, sizeof buffer, "%a", std::get<double>(value));
      out << buffer;
      break;
    }
    case 2: out << (std::get<bool>(value) ? "1" : "0"); break;
    default: out << std::get<std::string>(value); break;
  }
}

Result<AttrValue> parse_value(const std::string& type_text,
                              const std::string& payload) {
  LSDF_ASSIGN_OR_RETURN(const AttrType type, parse_type(type_text));
  switch (type) {
    case AttrType::kInt: {
      std::int64_t v = 0;
      const auto [ptr, ec] =
          std::from_chars(payload.data(), payload.data() + payload.size(),
                          v);
      if (ec != std::errc{} || ptr != payload.data() + payload.size()) {
        return invalid_argument("bad int value `" + payload + "`");
      }
      return AttrValue{v};
    }
    case AttrType::kDouble: {
      // strtod, unlike from_chars's default format, reads to_text's hex
      // floats ("0x1.8p+0"); the whole payload must be consumed. Overflow
      // is refused, subnormal underflow (exact in hex) is not.
      char* end = nullptr;
      errno = 0;
      const double v = std::strtod(payload.c_str(), &end);
      if (payload.empty() || std::isspace(static_cast<unsigned char>(
                                 payload.front())) != 0 ||
          end != payload.c_str() + payload.size() ||
          (errno == ERANGE && std::isinf(v))) {
        return invalid_argument("bad double value `" + payload + "`");
      }
      return AttrValue{v};
    }
    case AttrType::kBool:
      return AttrValue{payload == "1"};
    case AttrType::kString:
      return AttrValue{payload};
  }
  return invalid_argument("unreachable");
}

Result<std::int64_t> parse_int(const std::string& text) {
  std::int64_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    return invalid_argument("bad integer `" + text + "`");
  }
  return v;
}

}  // namespace

std::string MetadataStore::to_text() const {
  std::ostringstream out;
  out << "# lsdf metadata catalogue v1\n";
  for (const auto& [name, project] : projects_) {
    out << "project" << kSep << name << "\n";
    for (const AttrDef& attr : project.schema.attributes) {
      out << "schema" << kSep << name << kSep << attr.name << kSep
          << type_tag(attr.type) << kSep << (attr.required ? "1" : "0")
          << "\n";
    }
  }
  for (const auto& [id, record] : records_) {
    out << "dataset" << kSep << id << kSep << record.project << kSep
        << record.name << kSep << record.data_uri << kSep
        << record.size.count() << kSep << record.checksum << kSep
        << record.registered.nanos() << "\n";
    for (const auto& [key, value] : record.basic) {
      out << "attr" << kSep << id << kSep << key << kSep;
      write_value(out, value);
      out << "\n";
    }
    for (const auto& tag : record.tags) {
      out << "tag" << kSep << id << kSep << tag << "\n";
    }
    for (const auto& branch : record.branches) {
      out << "branch" << kSep << id << kSep << branch.id << kSep
          << branch.name << kSep << (branch.closed ? "1" : "0") << kSep
          << branch.created.nanos() << "\n";
      for (const auto& [key, value] : branch.parameters) {
        out << "bparam" << kSep << id << kSep << branch.id << kSep << key
            << kSep;
        write_value(out, value);
        out << "\n";
      }
      for (const auto& result : branch.results) {
        out << "result" << kSep << id << kSep << branch.id << kSep
            << result << "\n";
      }
    }
  }
  return out.str();
}

Result<MetadataStore> MetadataStore::from_text(std::string_view text) {
  MetadataStore store;
  int line_number = 0;
  for (const std::string& line : split(text, '\n')) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    const std::vector<std::string> fields = split(line, kSep);
    const std::string& kind = fields[0];
    auto syntax_error = [&](const std::string& what) {
      return invalid_argument("line " + std::to_string(line_number) + ": " +
                              what);
    };

    if (kind == "project") {
      if (fields.size() != 2) return syntax_error("project needs a name");
      LSDF_RETURN_IF_ERROR(store.create_project(fields[1], {}));
    } else if (kind == "schema") {
      if (fields.size() != 5) return syntax_error("bad schema record");
      const auto project = store.projects_.find(fields[1]);
      if (project == store.projects_.end()) {
        return syntax_error("schema before project " + fields[1]);
      }
      LSDF_ASSIGN_OR_RETURN(const AttrType type, parse_type(fields[3]));
      project->second.schema.attributes.push_back(
          AttrDef{fields[2], type, fields[4] == "1"});
    } else if (kind == "dataset") {
      if (fields.size() != 8) return syntax_error("bad dataset record");
      LSDF_ASSIGN_OR_RETURN(const std::int64_t id, parse_int(fields[1]));
      LSDF_ASSIGN_OR_RETURN(const std::int64_t size, parse_int(fields[5]));
      LSDF_ASSIGN_OR_RETURN(const std::int64_t crc, parse_int(fields[6]));
      LSDF_ASSIGN_OR_RETURN(const std::int64_t registered,
                            parse_int(fields[7]));
      const auto project = store.projects_.find(fields[2]);
      if (project == store.projects_.end()) {
        return syntax_error("dataset before project " + fields[2]);
      }
      DatasetRecord record;
      record.id = static_cast<DatasetId>(id);
      record.project = fields[2];
      record.name = fields[3];
      record.data_uri = fields[4];
      record.size = Bytes(size);
      record.checksum = static_cast<std::uint32_t>(crc);
      record.registered = SimTime(registered);
      if (store.records_.contains(record.id)) {
        return syntax_error("duplicate dataset id");
      }
      project->second.by_name.emplace(record.name, record.id);
      store.total_bytes_ += record.size;
      store.next_id_ = std::max(store.next_id_, record.id + 1);
      store.records_.emplace(record.id, std::move(record));
    } else if (kind == "attr") {
      if (fields.size() != 5) return syntax_error("bad attr record");
      LSDF_ASSIGN_OR_RETURN(const std::int64_t id, parse_int(fields[1]));
      const auto record = store.records_.find(static_cast<DatasetId>(id));
      if (record == store.records_.end()) {
        return syntax_error("attr for unknown dataset");
      }
      LSDF_ASSIGN_OR_RETURN(AttrValue value,
                            parse_value(fields[3], fields[4]));
      LSDF_RETURN_IF_ERROR(check_indexable(fields[2], value));
      if (!record->second.basic.emplace(fields[2], value).second) {
        return syntax_error("duplicate attr " + fields[2]);
      }
      store.attr_index_[fields[2]][value].insert(record->first);
    } else if (kind == "tag") {
      if (fields.size() != 3) return syntax_error("bad tag record");
      LSDF_ASSIGN_OR_RETURN(const std::int64_t id, parse_int(fields[1]));
      const auto record = store.records_.find(static_cast<DatasetId>(id));
      if (record == store.records_.end()) {
        return syntax_error("tag for unknown dataset");
      }
      if (!store.tag_index_[fields[2]].insert(record->first).second) {
        return syntax_error("duplicate tag " + fields[2]);
      }
      record->second.tags.push_back(fields[2]);
    } else if (kind == "branch") {
      if (fields.size() != 6) return syntax_error("bad branch record");
      LSDF_ASSIGN_OR_RETURN(const std::int64_t id, parse_int(fields[1]));
      LSDF_ASSIGN_OR_RETURN(const std::int64_t branch_id,
                            parse_int(fields[2]));
      LSDF_ASSIGN_OR_RETURN(const std::int64_t created,
                            parse_int(fields[5]));
      const auto record = store.records_.find(static_cast<DatasetId>(id));
      if (record == store.records_.end()) {
        return syntax_error("branch for unknown dataset");
      }
      ProcessingBranch branch;
      branch.id = static_cast<BranchId>(branch_id);
      branch.name = fields[3];
      branch.closed = fields[4] == "1";
      branch.created = SimTime(created);
      store.next_branch_id_ =
          std::max(store.next_branch_id_, branch.id + 1);
      record->second.branches.push_back(std::move(branch));
    } else if (kind == "bparam" || kind == "result") {
      const std::size_t expected = kind == "bparam" ? 6u : 4u;
      if (fields.size() != expected) return syntax_error("bad " + kind);
      LSDF_ASSIGN_OR_RETURN(const std::int64_t id, parse_int(fields[1]));
      LSDF_ASSIGN_OR_RETURN(const std::int64_t branch_id,
                            parse_int(fields[2]));
      const auto record = store.records_.find(static_cast<DatasetId>(id));
      if (record == store.records_.end()) {
        return syntax_error(kind + " for unknown dataset");
      }
      ProcessingBranch* branch = nullptr;
      for (ProcessingBranch& candidate : record->second.branches) {
        if (candidate.id == static_cast<BranchId>(branch_id)) {
          branch = &candidate;
          break;
        }
      }
      if (branch == nullptr) {
        return syntax_error(kind + " for unknown branch");
      }
      if (kind == "bparam") {
        LSDF_ASSIGN_OR_RETURN(AttrValue value,
                              parse_value(fields[4], fields[5]));
        branch->parameters.emplace(fields[3], std::move(value));
      } else {
        branch->results.push_back(fields[3]);
      }
    } else {
      return syntax_error("unknown record kind `" + kind + "`");
    }
  }
  return store;
}

}  // namespace lsdf::meta
