# End-to-end CTest for gcs_run: drive the real binary through a 2-cell
# sweep in --check mode and validate the CSV artifact's shape, then check
# that --list names a non-finite input instead of echoing it.
#
# Invoked in script mode by CTest (see add_test in the top-level
# CMakeLists) with:
#   -DGCS_RUN=<path to the built gcs_run>
#   -DOUT_DIR=<scratch directory for the results tree>
#
# The header below intentionally duplicates kCsvHeader from
# src/cli/runner.cpp: the CSV is a public schema that CI and external
# consumers pin, so changing a column must fail this test until the test
# (and harness::kResultSchemaVersion) are updated deliberately.
set(EXPECTED_HEADER
  "campaign,cell,n,workload,drift,delay,traffic,engine,delivery,seed,horizon,sample_dt,samples,max_global_skew,global_skew_bound,global_margin,max_local_skew,local_skew_floor,global_violations,envelope_violations,monotonicity_failures,messages_sent,messages_delivered,messages_dropped,delivery_events,traffic_packets,traffic_dropped,ecn_marks,peak_queue_bytes,sync_delay_sum,sync_delay_max,events_executed,clamped_events,wall_ms,events_per_sec")

if(NOT GCS_RUN OR NOT EXISTS "${GCS_RUN}")
  message(FATAL_ERROR "gcs_run binary not found: '${GCS_RUN}'")
endif()
if(NOT OUT_DIR)
  message(FATAL_ERROR "OUT_DIR not set")
endif()

file(REMOVE_RECURSE "${OUT_DIR}")

execute_process(
  COMMAND "${GCS_RUN}"
          --name=e2e --n=6 --topology=ring --seeds=1,2
          --horizon=20 --sample_dt=0.5 --check --out "${OUT_DIR}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gcs_run exited ${rc}\nstdout:\n${stdout}\nstderr:\n${stderr}")
endif()

foreach(artifact campaign.csv campaign.jsonl summary.json
        cells/000-s1.json cells/001-s2.json)
  if(NOT EXISTS "${OUT_DIR}/${artifact}")
    message(FATAL_ERROR "missing artifact ${OUT_DIR}/${artifact}")
  endif()
endforeach()

file(READ "${OUT_DIR}/campaign.csv" csv)
string(REGEX REPLACE "\n+$" "" csv "${csv}")
string(REPLACE "\n" ";" lines "${csv}")
list(LENGTH lines line_count)
if(NOT line_count EQUAL 3)
  message(FATAL_ERROR "expected header + 2 rows in campaign.csv, got ${line_count} lines:\n${csv}")
endif()

list(GET lines 0 header)
if(NOT header STREQUAL EXPECTED_HEADER)
  message(FATAL_ERROR "CSV header drifted.\nexpected: ${EXPECTED_HEADER}\ngot:      ${header}")
endif()

string(REGEX MATCHALL "," header_commas "${EXPECTED_HEADER}")
list(LENGTH header_commas expected_commas)
foreach(row_index 1 2)
  list(GET lines ${row_index} row)
  if(NOT row MATCHES "^e2e,")
    message(FATAL_ERROR "row ${row_index} does not belong to campaign 'e2e': ${row}")
  endif()
  string(REGEX MATCHALL "," row_commas "${row}")
  list(LENGTH row_commas actual_commas)
  if(NOT actual_commas EQUAL expected_commas)
    message(FATAL_ERROR "row ${row_index} has ${actual_commas} commas, header has ${expected_commas}: ${row}")
  endif()
endforeach()

# The JSONL must carry one line per cell as well.
file(READ "${OUT_DIR}/campaign.jsonl" jsonl)
string(REGEX REPLACE "\n+$" "" jsonl "${jsonl}")
string(REPLACE "\n" ";" jsonl_lines "${jsonl}")
list(LENGTH jsonl_lines jsonl_count)
if(NOT jsonl_count EQUAL 2)
  message(FATAL_ERROR "expected 2 JSONL lines, got ${jsonl_count}")
endif()

# A non-finite input is named before --list echoes anything (json cannot
# hold a NaN, so the echo used to fail with an anonymous json error).
execute_process(
  COMMAND "${GCS_RUN}" --list --B0=nan
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr)
if(NOT rc EQUAL 2 OR NOT stderr MATCHES "B0 must be finite" OR
   NOT stdout STREQUAL "")
  message(FATAL_ERROR "--list --B0=nan: want exit 2 naming B0, got ${rc}\n"
                      "stdout:\n${stdout}\nstderr:\n${stderr}")
endif()

# So is an unknown name: --list used to echo it and exit 0.
execute_process(
  COMMAND "${GCS_RUN}" --list --n=4 --drift=foo
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr)
if(NOT rc EQUAL 2 OR NOT stderr MATCHES "unknown drift 'foo'" OR
   NOT stdout STREQUAL "")
  message(FATAL_ERROR "--list --drift=foo: want exit 2 naming drift, got "
                      "${rc}\nstdout:\n${stdout}\nstderr:\n${stderr}")
endif()

message(STATUS "gcs_run e2e: 2-cell sweep ok, CSV schema intact, "
               "non-finite and unknown --list inputs named")
