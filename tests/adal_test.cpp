// Tests for ADAL: URI parsing, authentication, backend registry, the
// logical namespace and transparent migration — the slide 9/10 behaviours.
#include <gtest/gtest.h>

#include <optional>

#include "adal/adal.h"
#include "adal/backends.h"
#include "sim/simulator.h"
#include "storage/storage_pool.h"

namespace lsdf::adal {
namespace {

// --- Uri -----------------------------------------------------------------------

TEST(Uri, ParsesBackendAndPath) {
  const Uri uri = Uri::parse("lsdf://pool/zebrafish/frame-1").value();
  EXPECT_EQ(uri.backend, "pool");
  EXPECT_EQ(uri.path, "zebrafish/frame-1");
  EXPECT_EQ(uri.to_string(), "lsdf://pool/zebrafish/frame-1");
}

TEST(Uri, RejectsMalformedUris) {
  EXPECT_FALSE(Uri::parse("http://pool/x").is_ok());
  EXPECT_FALSE(Uri::parse("lsdf://").is_ok());
  EXPECT_FALSE(Uri::parse("lsdf://poolonly").is_ok());
  EXPECT_FALSE(Uri::parse("lsdf:///path").is_ok());
  EXPECT_FALSE(Uri::parse("lsdf://pool/").is_ok());
  EXPECT_FALSE(Uri::parse("").is_ok());
}

// --- AuthService ------------------------------------------------------------------

TEST(AuthService, UnknownTokenDenied) {
  AuthService auth;
  EXPECT_EQ(auth.check(Credentials{"nope"}, "pool", Access::kRead).code(),
            StatusCode::kPermissionDenied);
}

TEST(AuthService, GrantsArePerBackendAndPerMode) {
  AuthService auth;
  auth.add_token("tok", "alice");
  auth.grant("alice", "pool", Access::kRead);
  EXPECT_TRUE(auth.check(Credentials{"tok"}, "pool", Access::kRead).is_ok());
  EXPECT_FALSE(
      auth.check(Credentials{"tok"}, "pool", Access::kWrite).is_ok());
  EXPECT_FALSE(
      auth.check(Credentials{"tok"}, "archive", Access::kRead).is_ok());
  auth.grant("alice", "pool", Access::kWrite);
  EXPECT_TRUE(auth.check(Credentials{"tok"}, "pool", Access::kWrite).is_ok());
}

TEST(AuthService, WildcardGrantCoversAllBackends) {
  AuthService auth;
  auth.add_token("tok", "svc");
  auth.grant("svc", "*", Access::kRead);
  auth.grant("svc", "*", Access::kWrite);
  EXPECT_TRUE(
      auth.check(Credentials{"tok"}, "anything", Access::kWrite).is_ok());
}

TEST(AuthService, RevokedTokenDenied) {
  AuthService auth;
  auth.add_token("tok", "alice");
  auth.grant("alice", "*", Access::kRead);
  auth.revoke_token("tok");
  EXPECT_FALSE(auth.check(Credentials{"tok"}, "pool", Access::kRead).is_ok());
}

TEST(AuthService, TwoTokensSamePrincipalShareGrants) {
  AuthService auth;
  auth.add_token("t1", "alice");
  auth.add_token("t2", "alice");
  auth.grant("alice", "pool", Access::kRead);
  EXPECT_TRUE(auth.check(Credentials{"t1"}, "pool", Access::kRead).is_ok());
  EXPECT_TRUE(auth.check(Credentials{"t2"}, "pool", Access::kRead).is_ok());
}

// --- Adal over MemBackends ----------------------------------------------------------

struct AdalFixture {
  sim::Simulator sim;
  AuthService auth;
  Adal adal{sim, auth};
  Credentials svc{"svc-token"};
  MemBackend* fast = nullptr;
  MemBackend* slow = nullptr;

  AdalFixture() {
    auto fast_owned = std::make_unique<MemBackend>("fast", sim, 1_TB);
    auto slow_owned = std::make_unique<MemBackend>("slow", sim, 1_TB);
    fast = fast_owned.get();
    slow = slow_owned.get();
    EXPECT_TRUE(adal.register_backend(std::move(fast_owned)).is_ok());
    EXPECT_TRUE(adal.register_backend(std::move(slow_owned)).is_ok());
    auth.add_token(svc.token, "svc");
    auth.grant("svc", "*", Access::kRead);
    auth.grant("svc", "*", Access::kWrite);
  }

  Status write(const std::string& uri, Bytes size,
               const Credentials& who) {
    std::optional<storage::IoResult> result;
    adal.write(who, uri, size, [&](const storage::IoResult& r) {
      result = r;
    });
    sim.run();
    return result ? result->status : internal_error("no completion");
  }
  Status read(const std::string& uri, const Credentials& who) {
    std::optional<storage::IoResult> result;
    adal.read(who, uri, [&](const storage::IoResult& r) { result = r; });
    sim.run();
    return result ? result->status : internal_error("no completion");
  }
};

TEST(Adal, BackendRegistry) {
  AdalFixture f;
  EXPECT_EQ(f.adal.backend_names(),
            (std::vector<std::string>{"fast", "slow"}));
  EXPECT_EQ(f.adal.register_backend(
                     std::make_unique<MemBackend>("fast", f.sim, 1_GB))
                .code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(f.adal.register_backend(
                     std::make_unique<MemBackend>("data", f.sim, 1_GB))
                .code(),
            StatusCode::kInvalidArgument);  // reserved logical name
  EXPECT_TRUE(f.adal.set_default_backend("slow").is_ok());
  EXPECT_EQ(f.adal.set_default_backend("zzz").code(),
            StatusCode::kNotFound);
}

TEST(Adal, DirectBackendWriteReadRoundTrip) {
  AdalFixture f;
  EXPECT_TRUE(f.write("lsdf://fast/a/b", 1_GB, f.svc).is_ok());
  EXPECT_TRUE(f.adal.exists("lsdf://fast/a/b"));
  EXPECT_EQ(f.adal.stat("lsdf://fast/a/b").value(), 1_GB);
  EXPECT_TRUE(f.read("lsdf://fast/a/b", f.svc).is_ok());
  EXPECT_EQ(f.read("lsdf://fast/missing", f.svc).code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(f.adal.exists("lsdf://slow/a/b"));
}

TEST(Adal, LogicalNamespaceRoutesToDefaultBackend) {
  AdalFixture f;
  EXPECT_TRUE(f.write("lsdf://data/obj", 2_GB, f.svc).is_ok());
  EXPECT_EQ(f.adal.resolve("obj").value(), "fast");  // first registered
  EXPECT_TRUE(f.fast->contains("obj"));
  EXPECT_FALSE(f.slow->contains("obj"));
  EXPECT_TRUE(f.read("lsdf://data/obj", f.svc).is_ok());
  EXPECT_EQ(f.adal.stat("lsdf://data/obj").value(), 2_GB);
}

TEST(Adal, LogicalDuplicateRejected) {
  AdalFixture f;
  EXPECT_TRUE(f.write("lsdf://data/obj", 1_GB, f.svc).is_ok());
  EXPECT_EQ(f.write("lsdf://data/obj", 1_GB, f.svc).code(),
            StatusCode::kAlreadyExists);
}

TEST(Adal, UnknownBackendAndBadUriFailCleanly) {
  AdalFixture f;
  EXPECT_EQ(f.write("lsdf://ghost/x", 1_GB, f.svc).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(f.write("garbage", 1_GB, f.svc).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(f.read("lsdf://data/never-written", f.svc).code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(f.adal.stat("lsdf://ghost/x").is_ok());
  EXPECT_FALSE(f.adal.exists("not-a-uri"));
}

TEST(Adal, AuthorizationEnforcedOnDataPlane) {
  AdalFixture f;
  Credentials reader{"reader-token"};
  f.auth.add_token(reader.token, "bob");
  f.auth.grant("bob", "fast", Access::kRead);
  ASSERT_TRUE(f.write("lsdf://fast/x", 1_GB, f.svc).is_ok());
  EXPECT_TRUE(f.read("lsdf://fast/x", reader).is_ok());
  EXPECT_EQ(f.write("lsdf://fast/y", 1_GB, reader).code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(f.read("lsdf://slow/x", reader).code(),
            StatusCode::kPermissionDenied);
}

TEST(Adal, RemoveLogicalAndDirect) {
  AdalFixture f;
  ASSERT_TRUE(f.write("lsdf://data/obj", 1_GB, f.svc).is_ok());
  EXPECT_TRUE(f.adal.remove(f.svc, "lsdf://data/obj").is_ok());
  EXPECT_FALSE(f.adal.exists("lsdf://data/obj"));
  EXPECT_FALSE(f.fast->contains("obj"));
  EXPECT_EQ(f.adal.remove(f.svc, "lsdf://data/obj").code(),
            StatusCode::kNotFound);

  ASSERT_TRUE(f.write("lsdf://slow/direct", 1_GB, f.svc).is_ok());
  EXPECT_TRUE(f.adal.remove(f.svc, "lsdf://slow/direct").is_ok());
  EXPECT_FALSE(f.slow->contains("direct"));
}

TEST(Adal, RemoveRequiresWriteAccess) {
  AdalFixture f;
  ASSERT_TRUE(f.write("lsdf://data/obj", 1_GB, f.svc).is_ok());
  Credentials reader{"r"};
  f.auth.add_token(reader.token, "bob");
  f.auth.grant("bob", "*", Access::kRead);
  EXPECT_EQ(f.adal.remove(reader, "lsdf://data/obj").code(),
            StatusCode::kPermissionDenied);
}

// --- Transparent migration (experiment E4's mechanism) ---------------------------

TEST(Adal, MigrationMovesDataAndKeepsUriValid) {
  AdalFixture f;
  ASSERT_TRUE(f.write("lsdf://data/obj", 3_GB, f.svc).is_ok());
  ASSERT_EQ(f.adal.resolve("obj").value(), "fast");

  std::optional<Status> migrated;
  f.adal.migrate(f.svc, "obj", "slow", [&](Status s) { migrated = s; });
  f.sim.run();
  ASSERT_TRUE(migrated && migrated->is_ok());
  EXPECT_EQ(f.adal.resolve("obj").value(), "slow");
  EXPECT_TRUE(f.slow->contains("obj"));
  EXPECT_FALSE(f.fast->contains("obj"));  // old copy reclaimed
  // Same logical URI still reads fine — technology change is invisible.
  EXPECT_TRUE(f.read("lsdf://data/obj", f.svc).is_ok());
  EXPECT_EQ(f.adal.stat("lsdf://data/obj").value(), 3_GB);
}

TEST(Adal, MigrationToSameBackendIsANoOp) {
  AdalFixture f;
  ASSERT_TRUE(f.write("lsdf://data/obj", 1_GB, f.svc).is_ok());
  std::optional<Status> migrated;
  f.adal.migrate(f.svc, "obj", "fast", [&](Status s) { migrated = s; });
  f.sim.run();
  EXPECT_TRUE(migrated->is_ok());
  EXPECT_EQ(f.adal.resolve("obj").value(), "fast");
}

TEST(Adal, MigrationErrors) {
  AdalFixture f;
  std::optional<Status> result;
  f.adal.migrate(f.svc, "ghost", "slow", [&](Status s) { result = s; });
  f.sim.run();
  EXPECT_EQ(result->code(), StatusCode::kNotFound);

  ASSERT_TRUE(f.write("lsdf://data/obj", 1_GB, f.svc).is_ok());
  result.reset();
  f.adal.migrate(f.svc, "obj", "ghost-backend",
                 [&](Status s) { result = s; });
  f.sim.run();
  EXPECT_EQ(result->code(), StatusCode::kNotFound);

  Credentials reader{"r"};
  f.auth.add_token(reader.token, "bob");
  f.auth.grant("bob", "*", Access::kRead);
  result.reset();
  f.adal.migrate(reader, "obj", "slow", [&](Status s) { result = s; });
  f.sim.run();
  EXPECT_EQ(result->code(), StatusCode::kPermissionDenied);
}

// --- Quotas ---------------------------------------------------------------------------

TEST(AdalQuota, WritesBeyondTheBudgetAreRejected) {
  AdalFixture f;
  f.adal.set_quota("svc", 3_GB);
  EXPECT_TRUE(f.write("lsdf://data/a", 2_GB, f.svc).is_ok());
  EXPECT_EQ(f.adal.quota_usage("svc"), 2_GB);
  const Status over = f.write("lsdf://data/b", 2_GB, f.svc);
  EXPECT_EQ(over.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(over.message().find("quota"), std::string::npos);
  EXPECT_EQ(f.adal.quota_usage("svc"), 2_GB);  // rejected write not counted
  EXPECT_TRUE(f.write("lsdf://data/c", 1_GB, f.svc).is_ok());  // exact fit
}

TEST(AdalQuota, RemovalReturnsBudget) {
  AdalFixture f;
  f.adal.set_quota("svc", 2_GB);
  ASSERT_TRUE(f.write("lsdf://data/a", 2_GB, f.svc).is_ok());
  EXPECT_FALSE(f.write("lsdf://data/b", 1_GB, f.svc).is_ok());
  ASSERT_TRUE(f.adal.remove(f.svc, "lsdf://data/a").is_ok());
  EXPECT_EQ(f.adal.quota_usage("svc"), 0_B);
  EXPECT_TRUE(f.write("lsdf://data/b", 1_GB, f.svc).is_ok());
}

TEST(AdalQuota, QuotasArePerPrincipal) {
  AdalFixture f;
  Credentials other{"other-token"};
  f.auth.add_token(other.token, "community-b");
  f.auth.grant("community-b", "*", Access::kRead);
  f.auth.grant("community-b", "*", Access::kWrite);
  f.adal.set_quota("svc", 1_GB);
  // community-b has no quota: unlimited.
  EXPECT_TRUE(f.write("lsdf://data/b1", 10_GB, other).is_ok());
  EXPECT_FALSE(f.write("lsdf://data/s1", 2_GB, f.svc).is_ok());
  EXPECT_EQ(f.adal.quota_usage("community-b"), 10_GB);
  EXPECT_EQ(f.adal.quota_limit("svc").value(), 1_GB);
  EXPECT_FALSE(f.adal.quota_limit("community-b").is_ok());
}

TEST(AdalQuota, ClearQuotaLiftsTheLimit) {
  AdalFixture f;
  f.adal.set_quota("svc", 1_GB);
  EXPECT_FALSE(f.write("lsdf://data/a", 2_GB, f.svc).is_ok());
  f.adal.clear_quota("svc");
  EXPECT_TRUE(f.write("lsdf://data/a", 2_GB, f.svc).is_ok());
}

TEST(AdalQuota, FailedBackendWriteRefundsTheQuota) {
  AdalFixture f;
  // Fill the default backend (1 TB = 1000 GB decimal) so the quota-passing
  // write fails at the storage layer.
  ASSERT_TRUE(f.write("lsdf://fast/filler", 999_GB, f.svc).is_ok());
  f.adal.set_quota("svc", 100_GB);
  const Status failed = f.write("lsdf://data/a", 2_GB, f.svc);
  EXPECT_EQ(failed.code(), StatusCode::kResourceExhausted);  // backend full
  EXPECT_EQ(f.adal.quota_usage("svc"), 0_B);  // refunded
}

TEST(AdalQuota, DirectBackendWritesBypassLogicalQuota) {
  // Quotas govern the logical namespace (community data); direct backend
  // writes are administrative.
  AdalFixture f;
  f.adal.set_quota("svc", 1_GB);
  EXPECT_TRUE(f.write("lsdf://slow/admin-obj", 5_GB, f.svc).is_ok());
  EXPECT_EQ(f.adal.quota_usage("svc"), 0_B);
}

// --- MemBackend ----------------------------------------------------------------------

TEST(MemBackend, CapacityEnforced) {
  sim::Simulator sim;
  MemBackend backend("m", sim, 2_GB);
  std::optional<storage::IoResult> result;
  backend.write("a", 1_GB, [&](const storage::IoResult& r) { result = r; });
  sim.run();
  EXPECT_TRUE(result->status.is_ok());
  result.reset();
  backend.write("b", 2_GB, [&](const storage::IoResult& r) { result = r; });
  sim.run();
  EXPECT_EQ(result->status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(backend.used(), 1_GB);
  EXPECT_TRUE(backend.remove("a").is_ok());
  EXPECT_EQ(backend.used(), 0_B);
  EXPECT_EQ(backend.list().size(), 0u);
}

TEST(MemBackend, DuplicateWriteRejected) {
  sim::Simulator sim;
  MemBackend backend("m", sim, 10_GB);
  backend.write("a", 1_GB, nullptr);
  sim.run();
  std::optional<storage::IoResult> result;
  backend.write("a", 1_GB, [&](const storage::IoResult& r) { result = r; });
  sim.run();
  EXPECT_EQ(result->status.code(), StatusCode::kAlreadyExists);
}

// --- PoolBackend ---------------------------------------------------------------------

// Two disk arrays behind one pool, fronted by the backend under test.
struct PoolRig {
  PoolRig()
      : ddn(sim, {.name = "ddn", .capacity = 10_TB}),
        ibm(sim, {.name = "ibm", .capacity = 10_TB}),
        pool(storage::PlacementPolicy::kRoundRobin),
        backend("pool", sim, pool) {
    pool.add_array(ddn);
    pool.add_array(ibm);
  }
  sim::Simulator sim;
  storage::DiskArray ddn;
  storage::DiskArray ibm;
  storage::StoragePool pool;
  PoolBackend backend;
};

TEST(PoolBackend, WriteReadThenSizeAndListAfterRemove) {
  PoolRig rig;
  std::optional<storage::IoResult> written;
  rig.backend.write("a", 1_GB, nullptr);
  rig.backend.write("b", 2_GB,
                    [&](const storage::IoResult& r) { written = r; });
  rig.sim.run();
  ASSERT_TRUE(written.has_value());
  EXPECT_TRUE(written->status.is_ok());

  std::optional<storage::IoResult> read;
  rig.backend.read("b", [&](const storage::IoResult& r) { read = r; });
  rig.sim.run();
  ASSERT_TRUE(read.has_value());
  EXPECT_TRUE(read->status.is_ok());
  EXPECT_EQ(read->size, 2_GB);  // the size recorded at write time
  EXPECT_GT(read->duration(), SimDuration::zero());

  EXPECT_TRUE(rig.backend.remove("a").is_ok());
  EXPECT_FALSE(rig.backend.contains("a"));
  EXPECT_EQ(rig.backend.size_of("a").status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(rig.backend.contains("b"));
  EXPECT_EQ(rig.backend.size_of("b").value(), 2_GB);
  EXPECT_EQ(rig.backend.list(), std::vector<std::string>{"b"});
  EXPECT_EQ(rig.pool.used(), 2_GB);
  EXPECT_EQ(rig.backend.remove("a").code(), StatusCode::kNotFound);
}

TEST(PoolBackend, FailuresArriveThroughTheCallback) {
  PoolRig rig;
  rig.backend.write("a", 1_GB, nullptr);
  rig.sim.run();

  std::optional<storage::IoResult> duplicate;
  rig.backend.write("a", 1_GB,
                    [&](const storage::IoResult& r) { duplicate = r; });
  std::optional<storage::IoResult> missing;
  rig.backend.read("nope", [&](const storage::IoResult& r) { missing = r; });
  EXPECT_FALSE(duplicate.has_value());  // never inside the caller's call
  EXPECT_FALSE(missing.has_value());
  const SimTime asked = rig.sim.now();
  rig.sim.run();
  ASSERT_TRUE(duplicate.has_value());
  EXPECT_EQ(duplicate->status.code(), StatusCode::kAlreadyExists);
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(missing->status.code(), StatusCode::kNotFound);
  EXPECT_EQ(missing->started, asked);
  EXPECT_EQ(missing->finished, asked);
  EXPECT_EQ(missing->size, 0_B);
  EXPECT_EQ(rig.backend.list(), std::vector<std::string>{"a"});
}

}  // namespace
}  // namespace lsdf::adal
