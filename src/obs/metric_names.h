// The registry of metric names — the single source of truth for the
// engine-wide observability layer. Every metric registered anywhere in
// the codebase must take its name from this header, and every name here
// must be documented in docs/METRICS.md (tools/check_metrics_docs.sh,
// run as the `check_metrics_docs` ctest, enforces both directions).
//
// Naming convention (Prometheus style): `iov_<subsystem>_<what>[_unit]`,
// counters end in `_total`, durations are histograms in `_seconds`.
#pragma once

namespace iov::obs::names {

// --- Engine: the message switch (per-node registry) -----------------------
inline constexpr char kSwitchLatencySeconds[] = "iov_switch_latency_seconds";
inline constexpr char kSwitchProcessSeconds[] = "iov_switch_process_seconds";
inline constexpr char kSwitchMessagesTotal[] = "iov_switch_messages_total";
inline constexpr char kSwitchRoundsTotal[] = "iov_switch_rounds_total";
inline constexpr char kEngineControlMessagesTotal[] =
    "iov_engine_control_messages_total";
inline constexpr char kEngineTimersFiredTotal[] =
    "iov_engine_timers_fired_total";
inline constexpr char kEngineReportsSentTotal[] =
    "iov_engine_reports_sent_total";
inline constexpr char kEngineTracesTotal[] = "iov_engine_traces_total";
inline constexpr char kEngineLinkClosesTotal[] =
    "iov_engine_link_closes_total";
inline constexpr char kEngineLinkFailuresTotal[] =
    "iov_engine_link_failures_total";
inline constexpr char kEngineThreads[] = "iov_engine_threads";
inline constexpr char kEngineOpenFds[] = "iov_engine_open_fds";

// --- Shared epoll reactor (per-node registry; pool is process-shared) -----
inline constexpr char kReactorLoopLagSeconds[] =
    "iov_reactor_loop_lag_seconds";

// --- Per-link data plane (labels: peer, dir=up|down) ----------------------
inline constexpr char kLinkBytesTotal[] = "iov_link_bytes_total";
inline constexpr char kLinkMessagesTotal[] = "iov_link_messages_total";
inline constexpr char kLinkLostBytesTotal[] = "iov_link_lost_bytes_total";
inline constexpr char kLinkLostMessagesTotal[] =
    "iov_link_lost_messages_total";
inline constexpr char kLinkQueueDepth[] = "iov_link_queue_depth";
inline constexpr char kLinkQueueCapacity[] = "iov_link_queue_capacity";
inline constexpr char kThrottleWaitSeconds[] = "iov_throttle_wait_seconds";
inline constexpr char kLinkSyscallsTotal[] = "iov_link_syscalls_total";
inline constexpr char kLinkFlushMsgs[] = "iov_link_flush_msgs";

// --- Payload slab pool (per-node registry) --------------------------------
inline constexpr char kPoolSlabAcquiresTotal[] =
    "iov_pool_slab_acquires_total";
inline constexpr char kPoolSlabFreeBytes[] = "iov_pool_slab_free_bytes";

// --- Simulator substrate (per-SimNet registry, sim-time) ------------------
inline constexpr char kSimSwitchLatencySeconds[] =
    "iov_sim_switch_latency_seconds";
inline constexpr char kSimSwitchMessagesTotal[] =
    "iov_sim_switch_messages_total";
inline constexpr char kSimDeliveredBytesTotal[] =
    "iov_sim_delivered_bytes_total";
inline constexpr char kSimDeliveredMessagesTotal[] =
    "iov_sim_delivered_messages_total";
inline constexpr char kSimThrottleWaitSeconds[] =
    "iov_sim_throttle_wait_seconds";

// --- Observer (per-observer registry) -------------------------------------
inline constexpr char kObserverBootsTotal[] = "iov_observer_boots_total";
inline constexpr char kObserverReportsTotal[] = "iov_observer_reports_total";
inline constexpr char kObserverMalformedReportsTotal[] =
    "iov_observer_malformed_reports_total";
inline constexpr char kObserverTracesTotal[] = "iov_observer_traces_total";
inline constexpr char kObserverReportRttSeconds[] =
    "iov_observer_report_rtt_seconds";

// --- Chaos / fault injection (registry of the executing driver) -----------
inline constexpr char kChaosFaultsInjectedTotal[] =
    "iov_chaos_faults_injected_total";
inline constexpr char kChaosSessionsTornDownTotal[] =
    "iov_chaos_sessions_torn_down_total";
inline constexpr char kChaosRecoveryLatencySeconds[] =
    "iov_chaos_recovery_latency_seconds";

// --- Streaming churn scenarios (registry of the executing runner) ---------
inline constexpr char kStreamChurnEventsTotal[] =
    "iov_stream_churn_events_total";
inline constexpr char kStreamFramesTotal[] = "iov_stream_frames_total";
inline constexpr char kStreamFirstPacketSeconds[] =
    "iov_stream_first_packet_seconds";
inline constexpr char kStreamRejoinSeconds[] = "iov_stream_rejoin_seconds";
inline constexpr char kStreamGapSeconds[] = "iov_stream_gap_seconds";
inline constexpr char kStreamViewersInTree[] = "iov_stream_viewers_in_tree";
inline constexpr char kStreamOrphans[] = "iov_stream_orphans";
inline constexpr char kStreamTreeDepth[] = "iov_stream_tree_depth";
inline constexpr char kStreamTreeDegreeMax[] = "iov_stream_tree_degree_max";

}  // namespace iov::obs::names
