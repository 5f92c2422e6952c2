#include "tenant/tenant.hpp"

namespace dds::tenant {

namespace {

/// The tenant's DataBackend view of the shared store: translates mounted
/// ids by mount_first and installs the tenant's scope around every load,
/// so ANY trainer driving this backend gets per-tenant attribution
/// transparently.
class MountedBackend final : public train::DataBackend {
 public:
  MountedBackend(core::DDStore& store, TenantContext& owner)
      : store_(&store), owner_(&owner) {}

  graph::GraphSample load(std::uint64_t id) override {
    ScopedTenant guard(*store_, owner_->scope());
    return store_->get(translate(id));
  }

  std::vector<graph::GraphSample> load_batch(
      std::span<const std::uint64_t> ids) override {
    std::vector<std::uint64_t> mounted(ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) mounted[i] = translate(ids[i]);
    ScopedTenant guard(*store_, owner_->scope());
    return store_->get_batch(mounted);
  }

  std::uint64_t num_samples() const override {
    return owner_->spec().mount_samples;
  }
  std::uint64_t nominal_sample_bytes() const override {
    return store_->nominal_sample_bytes();
  }
  std::string name() const override {
    return "tenant:" + owner_->spec().name;
  }
  const MetricsRegistry* metrics() const override {
    return &store_->metrics();
  }

 private:
  std::uint64_t translate(std::uint64_t id) const {
    DDS_CHECK_MSG(id < owner_->spec().mount_samples,
                  "tenant '" + owner_->spec().name + "' id out of mount");
    return owner_->spec().mount_first + id;
  }

  core::DDStore* store_;
  TenantContext* owner_;
};

}  // namespace

TenantContext::TenantContext(Passkey, int id, TenantSpec spec,
                             core::DDStore& store)
    : id_(id),
      spec_(std::move(spec)),
      store_(&store),
      sampler_(spec_.mount_samples, spec_.local_batch, spec_.seed) {
  // Labeled counters: ordinary registry entries named e.g.
  // "bytes_fetched{tenant=alice}" — EpochReport deltas, cross-rank sums,
  // and bench JSON pick them up generically.  Registered at admit time,
  // which must happen before the first epoch (the trainer's delta
  // accounting checks the layout is stable across an epoch).
  const MetricLabel label{"tenant", spec_.name};
  MetricsRegistry& metrics = store.metrics();
  scope_.local_gets = &metrics.counter("local_gets", label);
  scope_.remote_gets = &metrics.counter("remote_gets", label);
  scope_.bytes_fetched = &metrics.counter("bytes_fetched", label);
  scope_.lock_epochs = &metrics.counter("lock_epochs", label);
  scope_.cache.hits = &metrics.counter("cache_hits", label);
  scope_.cache.misses = &metrics.counter("cache_misses", label);
  scope_.cache.hit_bytes = &metrics.counter("cache_hit_bytes", label);
  scope_.latency = &latency_;
  backend_ = std::make_unique<MountedBackend>(store, *this);
}

TenantRegistry::TenantRegistry(core::DDStore& store, AdmissionConfig admission)
    : store_(&store), admission_(admission) {
  DDS_CHECK(admission_.max_tenants >= 1);
}

std::uint64_t TenantRegistry::admitted_step_demand_bytes() const {
  std::uint64_t total = 0;
  for (const auto& t : tenants_) {
    total += t.spec().local_batch * store_->nominal_sample_bytes();
  }
  return total;
}

TenantContext& TenantRegistry::admit(const TenantSpec& spec) {
  TenantSpec accepted = spec;
  if (accepted.mount_samples == 0) {
    // Whole-store mount.
    DDS_CHECK_MSG(accepted.mount_first == 0,
                  "whole-store mount must start at id 0");
    accepted.mount_samples = store_->num_samples();
  }
  if (accepted.name.empty()) {
    throw ConfigError("tenant name must be non-empty");
  }
  for (const auto& t : tenants_) {
    if (t.spec().name == accepted.name) {
      throw ConfigError("tenant '" + accepted.name + "' already admitted");
    }
  }
  if (tenants_.size() >= static_cast<std::size_t>(admission_.max_tenants)) {
    throw ConfigError("admission rejected '" + accepted.name +
                      "': max_tenants reached");
  }
  if (accepted.mount_first + accepted.mount_samples > store_->num_samples() ||
      accepted.mount_samples == 0) {
    throw ConfigError("admission rejected '" + accepted.name +
                      "': mount outside the store");
  }
  if (accepted.local_batch == 0) {
    throw ConfigError("admission rejected '" + accepted.name +
                      "': zero batch");
  }
  if (!(accepted.weight > 0.0)) {
    throw ConfigError("admission rejected '" + accepted.name +
                      "': non-positive weight");
  }
  const std::uint64_t demand =
      accepted.local_batch * store_->nominal_sample_bytes();
  if (admission_.step_demand_budget_bytes != 0 &&
      admitted_step_demand_bytes() + demand >
          admission_.step_demand_budget_bytes) {
    throw ConfigError("admission rejected '" + accepted.name +
                      "': step-demand budget exhausted");
  }

  // In-place construction: the context's backend captures the context's
  // address, and deque growth never moves existing elements.
  tenants_.emplace_back(TenantContext::Passkey{},
                        static_cast<int>(tenants_.size()), std::move(accepted),
                        *store_);
  return tenants_.back();
}

}  // namespace dds::tenant
