# Guard for scripts/perf_compare.py's failure modes: every gate must fail
# LOUDLY (exit 2, "unusable input") when a counter it depends on is
# absent, instead of silently passing with reduced coverage.  The hole
# this pins closed: a current run without the hw_threads counter used to
# downgrade the sharded-speedup gate to "informational" -- a silent pass.
#
# Fixture benchmark JSONs are built with file(WRITE); no benchmark binary
# runs, so this costs milliseconds.
#
# Invoked in script mode by CTest with:
#   -DSRC_DIR=<repo root>  -DOUT_DIR=<scratch directory>

foreach(var SRC_DIR OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_perf_gate_guard.cmake: -D${var}=... is required")
  endif()
endforeach()

find_program(PYTHON3 NAMES python3 python REQUIRED)
set(PERF_COMPARE "${SRC_DIR}/scripts/perf_compare.py")
if(NOT EXISTS "${PERF_COMPARE}")
  message(FATAL_ERROR "missing ${PERF_COMPARE}")
endif()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

# One fully-populated benchmark run: the telemetry/sharded/columns
# counters and hw_threads.  Variants swap in a counter set that omits or
# degrades a piece.
function(write_run path counters)
  file(WRITE "${path}" "{\"benchmarks\": [${counters}]}")
endfunction()

set(COUNTERS_FULL "
  {\"name\": \"BM_TelemetryOverhead/iterations:25\", \"run_type\": \"iteration\", \"cpu_time\": 1.0, \"telemetry_overhead_ratio\": 1.02},
  {\"name\": \"BM_ShardedHold/iterations:5\", \"run_type\": \"iteration\", \"cpu_time\": 1.0, \"sharded_speedup_ratio\": 2.1, \"hw_threads\": 8},
  {\"name\": \"BM_MillionNodeChurn/20000/iterations:5\", \"run_type\": \"iteration\", \"cpu_time\": 1.0, \"columns_speedup_ratio\": 1.4}")
# hw_threads missing from the sharded entry.
set(COUNTERS_NO_HW "
  {\"name\": \"BM_TelemetryOverhead/iterations:25\", \"run_type\": \"iteration\", \"cpu_time\": 1.0, \"telemetry_overhead_ratio\": 1.02},
  {\"name\": \"BM_ShardedHold/iterations:5\", \"run_type\": \"iteration\", \"cpu_time\": 1.0, \"sharded_speedup_ratio\": 2.1},
  {\"name\": \"BM_MillionNodeChurn/20000/iterations:5\", \"run_type\": \"iteration\", \"cpu_time\": 1.0, \"columns_speedup_ratio\": 1.4}")
# Sharded counter gone entirely (the pre-existing loud failure, kept pinned).
set(COUNTERS_NO_SHARDED "
  {\"name\": \"BM_TelemetryOverhead/iterations:25\", \"run_type\": \"iteration\", \"cpu_time\": 1.0, \"telemetry_overhead_ratio\": 1.02},
  {\"name\": \"BM_MillionNodeChurn/20000/iterations:5\", \"run_type\": \"iteration\", \"cpu_time\": 1.0, \"columns_speedup_ratio\": 1.4}")

# A genuine regression: the columns store fell to half the object path.
set(COUNTERS_REGRESSED "
  {\"name\": \"BM_TelemetryOverhead/iterations:25\", \"run_type\": \"iteration\", \"cpu_time\": 1.0, \"telemetry_overhead_ratio\": 1.02},
  {\"name\": \"BM_ShardedHold/iterations:5\", \"run_type\": \"iteration\", \"cpu_time\": 1.0, \"sharded_speedup_ratio\": 2.1, \"hw_threads\": 8},
  {\"name\": \"BM_MillionNodeChurn/20000/iterations:5\", \"run_type\": \"iteration\", \"cpu_time\": 1.0, \"columns_speedup_ratio\": 0.5}")

write_run("${OUT_DIR}/baseline.json" "${COUNTERS_FULL}")
write_run("${OUT_DIR}/current_ok.json" "${COUNTERS_FULL}")
write_run("${OUT_DIR}/current_no_hw.json" "${COUNTERS_NO_HW}")
write_run("${OUT_DIR}/current_no_sharded.json" "${COUNTERS_NO_SHARDED}")
write_run("${OUT_DIR}/current_regressed.json" "${COUNTERS_REGRESSED}")

# Runs perf_compare against baseline.json and asserts exit code + message.
function(expect_exit current want_rc want_pattern what)
  execute_process(
    COMMAND "${PYTHON3}" "${PERF_COMPARE}"
            "${OUT_DIR}/baseline.json" "${OUT_DIR}/${current}"
            --min-sharded-speedup 1.5
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  if(NOT rc EQUAL want_rc)
    message(FATAL_ERROR "${what}: expected exit ${want_rc}, got ${rc}\n"
            "stdout:\n${stdout}\nstderr:\n${stderr}")
  endif()
  if(want_pattern AND NOT "${stdout}${stderr}" MATCHES "${want_pattern}")
    message(FATAL_ERROR "${what}: exit ${rc} but output does not mention "
            "'${want_pattern}'\nstdout:\n${stdout}\nstderr:\n${stderr}")
  endif()
endfunction()

# Clean fixtures pass every gate.
expect_exit(current_ok.json 0 "within tolerance" "clean fixtures")
# A current run without hw_threads must be unusable input, not an
# informational downgrade of the sharded gate.
expect_exit(current_no_hw.json 2 "hw_threads" "missing hw_threads")
# The sharded counter vanishing entirely stays loud too.
expect_exit(current_no_sharded.json 2 "sharded_speedup_ratio" "missing sharded counter")
# A real regression still exits 1 (the guard must not have broken the
# actual comparison path).
expect_exit(current_regressed.json 1 "REGRESSION" "genuine regression")

message(STATUS "perf gate guard: missing hw_threads and missing sharded "
        "counter exit 2; clean fixtures pass; regressions exit 1")
