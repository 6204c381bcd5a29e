#include "adal/adal.h"

#include <algorithm>
#include <utility>

#include "common/require.h"
#include "obs/context.h"
#include "obs/trace.h"

namespace lsdf::adal {

namespace {

// Root or refine the thread's request context for an ADAL operation: a bare
// call starts a fresh request tagged with the caller's tenant; a call made
// inside an existing request (e.g. ingest) keeps that request and only
// fills in a missing tenant tag.
obs::RequestContext request_context_for(const std::string& tenant) {
  obs::RequestContext context = obs::current_context();
  if (!context.active()) return obs::begin_request(tenant);
  if (context.tenant == 0) context.tenant = obs::tenant_id(tenant);
  return context;
}

}  // namespace

Result<Uri> Uri::parse(const std::string& text) {
  constexpr std::string_view kScheme = "lsdf://";
  if (text.rfind(kScheme, 0) != 0) {
    return invalid_argument("URI must start with lsdf:// — got `" + text +
                            "`");
  }
  const std::string rest = text.substr(kScheme.size());
  const auto slash = rest.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= rest.size()) {
    return invalid_argument("URI needs lsdf://<backend>/<path> — got `" +
                            text + "`");
  }
  return Uri{rest.substr(0, slash), rest.substr(slash + 1)};
}

void AuthService::add_token(std::string token, std::string principal) {
  LSDF_REQUIRE(!token.empty(), "empty token");
  principal_by_token_[std::move(token)] = std::move(principal);
}

void AuthService::grant(const std::string& principal,
                        const std::string& backend, Access access) {
  grants_[{principal, backend}] |= static_cast<std::uint8_t>(access);
}

void AuthService::revoke_token(const std::string& token) {
  principal_by_token_.erase(token);
}

Result<std::string> AuthService::principal_of(
    const Credentials& credentials) const {
  const auto principal = principal_by_token_.find(credentials.token);
  if (principal == principal_by_token_.end()) {
    return permission_denied("unknown token");
  }
  return principal->second;
}

Status AuthService::check(const Credentials& credentials,
                          const std::string& backend, Access need) const {
  const auto principal = principal_by_token_.find(credentials.token);
  if (principal == principal_by_token_.end()) {
    return permission_denied("unknown token");
  }
  const auto mask = static_cast<std::uint8_t>(need);
  for (const std::string& scope : {backend, std::string("*")}) {
    const auto grant = grants_.find({principal->second, scope});
    if (grant != grants_.end() && (grant->second & mask) == mask) {
      return Status::ok();
    }
  }
  return permission_denied("principal `" + principal->second +
                           "` lacks access on backend `" + backend + "`");
}

Status Adal::register_backend(std::unique_ptr<Backend> backend) {
  LSDF_REQUIRE(backend != nullptr, "null backend");
  const std::string& name = backend->name();
  if (name == kLogical) {
    return invalid_argument("`data` names the logical namespace");
  }
  if (backends_.contains(name)) {
    return already_exists("backend " + name);
  }
  if (default_backend_ == nullptr) default_backend_ = backend.get();
  backends_.emplace(name, std::move(backend));
  return Status::ok();
}

Status Adal::set_default_backend(const std::string& name) {
  LSDF_ASSIGN_OR_RETURN(Backend * backend, backend_for(name));
  default_backend_ = backend;
  return Status::ok();
}

std::vector<std::string> Adal::backend_names() const {
  std::vector<std::string> names;
  names.reserve(backends_.size());
  for (const auto& [name, backend] : backends_) names.push_back(name);
  return names;
}

Result<Backend*> Adal::backend_for(const std::string& name) const {
  const auto it = backends_.find(name);
  if (it == backends_.end()) return not_found("backend " + name);
  return it->second.get();
}

std::string Adal::tenant_of(const Credentials& who) const {
  const auto principal = auth_.principal_of(who);
  return principal.is_ok() ? principal.value() : std::string("anonymous");
}

obs::HdrHistogram& Adal::request_latency(const std::string& tenant,
                                         const char* op) {
  const auto key = std::make_pair(tenant, std::string(op));
  const auto it = latency_by_.find(key);
  if (it != latency_by_.end()) return *it->second;
  obs::HdrHistogram& instrument =
      obs::MetricsRegistry::global().hdr_histogram(
          "lsdf_adal_request_seconds", {{"op", op}, {"tenant", tenant}});
  latency_by_.emplace(key, &instrument);
  return instrument;
}

storage::IoCallback Adal::timed(const char* op, const std::string& tenant,
                                storage::IoCallback done) {
  const SimTime started = simulator_.now();
  obs::HdrHistogram& latency = request_latency(tenant, op);
  return [this, op, started, &latency,
          done = std::move(done)](const storage::IoResult& result) {
    latency.record((simulator_.now() - started).seconds());
    obs::Tracer& tracer = obs::Tracer::global();
    if (tracer.enabled() && tracer.sim_clocked()) {
      tracer.emit_complete(
          std::string("adal.") + op, "adal", started.nanos() / 1000,
          (simulator_.now() - started).nanos() / 1000,
          {{"status", result.status.is_ok() ? std::string("ok")
                                            : result.status.to_string()}});
    }
    if (done) done(result);
  };
}

void Adal::fail(storage::IoCallback done, Status status) const {
  storage::complete_deferred(simulator_, std::move(done), std::move(status));
}

void Adal::write(const Credentials& who, const std::string& uri, Bytes size,
                 storage::IoCallback done) {
  const std::string tenant = tenant_of(who);
  // Install the request context for the synchronous prologue; async legs
  // (backend I/O, the fail() event) inherit it via the schedule-site
  // capture in sim::Simulator.
  const obs::ContextScope scope(request_context_for(tenant));
  done = timed("write", tenant, std::move(done));
  const auto parsed = Uri::parse(uri);
  if (!parsed.is_ok()) {
    fail(std::move(done), parsed.status());
    return;
  }
  const auto& [backend_name, path] = parsed.value();

  if (backend_name == kLogical) {
    if (const Status auth = auth_.check(
            who, default_backend_ ? default_backend_->name() : "*",
            Access::kWrite);
        !auth.is_ok()) {
      fail(std::move(done), auth);
      return;
    }
    if (default_backend_ == nullptr) {
      fail(std::move(done), failed_precondition("no default backend"));
      return;
    }
    if (logical_.contains(path)) {
      fail(std::move(done), already_exists(uri));
      return;
    }
    // Quota check against the writing principal's budget.
    const auto principal = auth_.principal_of(who);
    if (!principal.is_ok()) {
      fail(std::move(done), principal.status());
      return;
    }
    const std::string owner = principal.value();
    if (const auto limit = quota_limit_.find(owner);
        limit != quota_limit_.end()) {
      const Bytes used = quota_usage_[owner];
      if (used + size > limit->second) {
        fail(std::move(done),
             resource_exhausted("quota exceeded for `" + owner + "`: " +
                                format_bytes(used) + " + " +
                                format_bytes(size) + " > " +
                                format_bytes(limit->second)));
        return;
      }
    }
    quota_usage_[owner] += size;
    logical_.emplace(path, Located{default_backend_, size, owner});
    default_backend_->write(
        path, size, [this, path, size, owner, done = std::move(done)](
                        const storage::IoResult& result) mutable {
          if (!result.status.is_ok()) {
            logical_.erase(path);
            quota_usage_[owner] -= size;
          }
          if (done) done(result);
        });
    return;
  }

  if (const Status auth = auth_.check(who, backend_name, Access::kWrite);
      !auth.is_ok()) {
    fail(std::move(done), auth);
    return;
  }
  const auto backend = backend_for(backend_name);
  if (!backend.is_ok()) {
    fail(std::move(done), backend.status());
    return;
  }
  backend.value()->write(path, size, std::move(done));
}

void Adal::read(const Credentials& who, const std::string& uri,
                storage::IoCallback done) {
  const std::string tenant = tenant_of(who);
  const obs::ContextScope scope(request_context_for(tenant));
  done = timed("read", tenant, std::move(done));
  const auto parsed = Uri::parse(uri);
  if (!parsed.is_ok()) {
    fail(std::move(done), parsed.status());
    return;
  }
  const auto& [backend_name, path] = parsed.value();

  Backend* backend = nullptr;
  std::string real_path = path;
  if (backend_name == kLogical) {
    const auto located = logical_.find(path);
    if (located == logical_.end()) {
      fail(std::move(done), not_found(uri));
      return;
    }
    backend = located->second.backend;
  } else {
    const auto found = backend_for(backend_name);
    if (!found.is_ok()) {
      fail(std::move(done), found.status());
      return;
    }
    backend = found.value();
  }
  if (const Status auth = auth_.check(who, backend->name(), Access::kRead);
      !auth.is_ok()) {
    fail(std::move(done), auth);
    return;
  }
  backend->read(real_path, std::move(done));
}

Status Adal::remove(const Credentials& who, const std::string& uri) {
  LSDF_ASSIGN_OR_RETURN(const Uri parsed, Uri::parse(uri));
  if (parsed.backend == kLogical) {
    const auto located = logical_.find(parsed.path);
    if (located == logical_.end()) return not_found(uri);
    LSDF_RETURN_IF_ERROR(
        auth_.check(who, located->second.backend->name(), Access::kWrite));
    LSDF_RETURN_IF_ERROR(located->second.backend->remove(parsed.path));
    quota_usage_[located->second.owner] -= located->second.size;
    logical_.erase(located);
    return Status::ok();
  }
  LSDF_RETURN_IF_ERROR(auth_.check(who, parsed.backend, Access::kWrite));
  LSDF_ASSIGN_OR_RETURN(Backend * backend, backend_for(parsed.backend));
  return backend->remove(parsed.path);
}

Result<Bytes> Adal::stat(const std::string& uri) const {
  LSDF_ASSIGN_OR_RETURN(const Uri parsed, Uri::parse(uri));
  if (parsed.backend == kLogical) {
    const auto located = logical_.find(parsed.path);
    if (located == logical_.end()) return not_found(uri);
    return located->second.size;
  }
  LSDF_ASSIGN_OR_RETURN(Backend * backend, backend_for(parsed.backend));
  return backend->size_of(parsed.path);
}

bool Adal::exists(const std::string& uri) const {
  const auto parsed = Uri::parse(uri);
  if (!parsed.is_ok()) return false;
  if (parsed.value().backend == kLogical) {
    return logical_.contains(parsed.value().path);
  }
  const auto backend = backend_for(parsed.value().backend);
  return backend.is_ok() && backend.value()->contains(parsed.value().path);
}

void Adal::migrate(const Credentials& who, const std::string& logical_path,
                   const std::string& target_backend,
                   std::function<void(Status)> done) {
  const obs::ContextScope scope(request_context_for(tenant_of(who)));
  const SimTime started = simulator_.now();
  auto finish = [this, started, done = std::move(done)](Status status) {
    obs::Tracer& tracer = obs::Tracer::global();
    if (tracer.enabled() && tracer.sim_clocked()) {
      tracer.emit_complete(
          "adal.migrate", "adal", started.nanos() / 1000,
          (simulator_.now() - started).nanos() / 1000,
          {{"status",
            status.is_ok() ? std::string("ok") : status.to_string()}});
    }
    simulator_.schedule_after(
        SimDuration::zero(),
        [done = std::move(done), status = std::move(status)] {
          if (done) done(status);
        });
  };
  const auto located = logical_.find(logical_path);
  if (located == logical_.end()) {
    finish(not_found("logical path " + logical_path));
    return;
  }
  const auto target = backend_for(target_backend);
  if (!target.is_ok()) {
    finish(target.status());
    return;
  }
  Backend* const source = located->second.backend;
  Backend* const destination = target.value();
  if (source == destination) {
    finish(Status::ok());
    return;
  }
  if (const Status auth = auth_.check(who, source->name(), Access::kRead);
      !auth.is_ok()) {
    finish(auth);
    return;
  }
  if (const Status auth =
          auth_.check(who, destination->name(), Access::kWrite);
      !auth.is_ok()) {
    finish(auth);
    return;
  }

  // Copy: read from the source while writing to the destination; the
  // location table flips only after both legs succeed, so concurrent reads
  // keep hitting the old copy until the new one is durable.
  const Bytes size = located->second.size;
  auto pending = std::make_shared<int>(2);
  auto failed = std::make_shared<Status>(Status::ok());
  auto leg = [this, pending, failed, logical_path, source, destination,
              finish = std::move(finish)](const storage::IoResult& result) {
    if (!result.status.is_ok() && failed->is_ok()) *failed = result.status;
    if (--*pending != 0) return;
    const auto located = logical_.find(logical_path);
    if (!failed->is_ok() || located == logical_.end()) {
      (void)destination->remove(logical_path);
      finish(failed->is_ok() ? not_found("object vanished during migration")
                             : *failed);
      return;
    }
    located->second.backend = destination;
    (void)source->remove(logical_path);
    finish(Status::ok());
  };
  source->read(logical_path, leg);
  destination->write(logical_path, size, leg);
}

void Adal::set_quota(const std::string& principal, Bytes limit) {
  LSDF_REQUIRE(limit >= Bytes::zero(), "negative quota");
  quota_limit_[principal] = limit;
}

void Adal::clear_quota(const std::string& principal) {
  quota_limit_.erase(principal);
}

Bytes Adal::quota_usage(const std::string& principal) const {
  const auto it = quota_usage_.find(principal);
  return it == quota_usage_.end() ? Bytes::zero() : it->second;
}

Result<Bytes> Adal::quota_limit(const std::string& principal) const {
  const auto it = quota_limit_.find(principal);
  if (it == quota_limit_.end()) {
    return not_found("no quota for `" + principal + "`");
  }
  return it->second;
}

Result<std::string> Adal::resolve(const std::string& logical_path) const {
  const auto located = logical_.find(logical_path);
  if (located == logical_.end()) {
    return not_found("logical path " + logical_path);
  }
  return located->second.backend->name();
}

}  // namespace lsdf::adal
