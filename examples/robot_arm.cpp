// robot_arm — a robotics pipeline (sense -> kinematics -> plan ->
// drive) decomposed across multiple processors, exercising the paper's
// multiprocessor sketch through map::deploy: per-processor latency
// scheduling plus a unit-slot TDMA communication bus, with exact
// end-to-end verification.
//
//   $ ./robot_arm
#include <cstdio>

#include "core/model.hpp"
#include "graph/algorithms.hpp"
#include "map/deploy.hpp"

using namespace rtg;

namespace {

core::GraphModel build_arm_model() {
  core::CommGraph comm;
  const auto enc = comm.add_element("encoders", 1);      // joint encoders
  const auto fk = comm.add_element("fwd_kin", 3);        // forward kinematics
  const auto cam = comm.add_element("camera", 2);        // vision preprocessing
  const auto obj = comm.add_element("obj_track", 3);     // target tracking
  const auto plan = comm.add_element("traj_plan", 4);    // trajectory planning
  const auto ik = comm.add_element("inv_kin", 3);        // inverse kinematics
  const auto drv = comm.add_element("joint_drive", 1);   // motor commands
  comm.add_channel(enc, fk);
  comm.add_channel(fk, plan);
  comm.add_channel(cam, obj);
  comm.add_channel(obj, plan);
  comm.add_channel(plan, ik);
  comm.add_channel(ik, drv);

  core::GraphModel model(std::move(comm));

  // Servo loop: encoders through the full chain to the drives.
  {
    core::TaskGraph tg;
    const auto a = tg.add_op(enc);
    const auto b = tg.add_op(fk);
    const auto c = tg.add_op(plan);
    const auto d = tg.add_op(ik);
    const auto e = tg.add_op(drv);
    tg.add_dep(a, b);
    tg.add_dep(b, c);
    tg.add_dep(c, d);
    tg.add_dep(d, e);
    model.add_constraint(core::TimingConstraint{
        "SERVO", std::move(tg), 60, 60, core::ConstraintKind::kPeriodic});
  }
  // Vision loop: camera -> tracking -> replan, slower.
  {
    core::TaskGraph tg;
    const auto a = tg.add_op(cam);
    const auto b = tg.add_op(obj);
    const auto c = tg.add_op(plan);
    tg.add_dep(a, b);
    tg.add_dep(b, c);
    model.add_constraint(core::TimingConstraint{
        "VISION", std::move(tg), 120, 120, core::ConstraintKind::kPeriodic});
  }
  // Emergency replan on contact: sporadic, tight deadline.
  {
    core::TaskGraph tg;
    const auto c = tg.add_op(plan);
    const auto d = tg.add_op(ik);
    const auto e = tg.add_op(drv);
    tg.add_dep(c, d);
    tg.add_dep(d, e);
    model.add_constraint(core::TimingConstraint{
        "ESTOP", std::move(tg), 300, 80, core::ConstraintKind::kAsynchronous});
  }
  return model;
}

}  // namespace

int main() {
  const core::GraphModel model = build_arm_model();
  std::printf("robot arm model: %zu elements, %zu constraints, sum w/d = %.3f\n",
              model.comm().size(), model.constraint_count(),
              model.deadline_utilization());
  // Dilworth width of each task graph = the most operations that could
  // ever run concurrently, a natural cap on useful processors.
  std::size_t max_width = 1;
  for (const core::TimingConstraint& c : model.constraints()) {
    max_width = std::max(max_width, graph::dag_width(c.task_graph.skeleton()));
  }
  std::printf("max task-graph width: %zu (processors beyond the combined "
              "workload's parallelism cannot shorten any one constraint)\n\n",
              max_width);

  for (std::size_t m : {1, 2, 3}) {
    // A shared bus where every message takes one TDMA slot.
    map::Platform bus = map::Platform::bus(m);
    bus.fixed_message_size = 1;
    for (const auto& [policy, name] :
         {std::pair{map::GreedyMapper::Policy::kLpt, "LPT"},
          std::pair{map::GreedyMapper::Policy::kCommunication, "comm-aware"}}) {
      const map::GreedyMapper mapper(policy);
      map::DeployOptions options;
      options.custom = &mapper;
      const map::Deployment d = map::deploy(model, bus, options);
      std::printf("m=%zu %-10s : ", m, name);
      if (!d.success) {
        std::printf("failed (%s)\n", d.failure_reason.c_str());
        continue;
      }
      std::printf("ok, bus channels %zu", d.messages.size());
      for (std::size_t i = 0; i < d.end_to_end.size(); ++i) {
        const core::TimingConstraint& c = d.scheduled_model.constraint(i);
        std::printf("  %s=%lld/%lld", c.name.c_str(),
                    d.end_to_end[i] ? static_cast<long long>(*d.end_to_end[i]) : -1,
                    static_cast<long long>(c.deadline));
      }
      std::printf("\n");
    }
  }
  return 0;
}
