# End-to-end CTest for the telemetry determinism matrix: the series and
# trace artifacts are trajectory-derived bytes only, so --jobs 1 vs
# --jobs 2 (workers compute, the committer writes in cell order) must
# give the FULL tree identical, telemetry files included.
#
# Plus the `engine` key's compatibility contract: there is one event
# queue, and --engine=calendar and --engine=heap both select it, so their
# trees are identical except for the echoed engine value (config echo and
# campaign.csv's engine column); --engine=foo is rejected, naming the key.
#
# Plus the gcs_report stability contract: running the report twice on one
# tree produces identical bytes.
#
# Invoked in script mode by CTest with:
#   -DGCS_RUN=<path to gcs_run>  -DGCS_REPORT=<path to gcs_report>
#   -DCAMPAIGN=<path to campaigns/churn.json>
#   -DOUT_DIR=<scratch directory>

foreach(var GCS_RUN GCS_REPORT CAMPAIGN OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_telemetry_determinism.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${OUT_DIR}")

# Three trees; --engine=<value> is a scalar override, so it never enters
# the cell labels and the three trees share file names.
foreach(cfg "jobs1-calendar;1;calendar" "jobs2-calendar;2;calendar"
            "jobs1-heap;1;heap")
  list(GET cfg 0 tree)
  list(GET cfg 1 jobs)
  list(GET cfg 2 engine)
  execute_process(
    COMMAND "${GCS_RUN}" --campaign "${CAMPAIGN}" --check --quiet
            --jobs ${jobs} --engine=${engine} --fixed-timing
            --series --trace=1024 --out "${OUT_DIR}/${tree}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "gcs_run (${tree}) exited ${rc}\n${stdout}\n${stderr}")
  endif()
endforeach()

set(TREE_A "${OUT_DIR}/jobs1-calendar")
set(TREE_B "${OUT_DIR}/jobs2-calendar")
set(TREE_H "${OUT_DIR}/jobs1-heap")

file(GLOB_RECURSE a_files RELATIVE "${TREE_A}" "${TREE_A}/*")
list(SORT a_files)

set(series_count 0)
set(trace_count 0)
foreach(f ${a_files})
  # --jobs never changes a byte, telemetry artifacts included.
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files "${TREE_A}/${f}" "${TREE_B}/${f}"
    RESULT_VARIABLE cmp)
  if(NOT cmp EQUAL 0)
    message(FATAL_ERROR "--jobs 2 produced different bytes for ${f}")
  endif()
  # The engine key: heap and calendar are the same queue, so only the
  # echoed value may differ.
  file(READ "${TREE_A}/${f}" want)
  file(READ "${TREE_H}/${f}" got)
  string(REGEX REPLACE "(\"engine\": *)\"heap\"" "\\1\"calendar\""
         got "${got}")
  string(REPLACE ",heap," ",calendar," got "${got}")
  if(NOT want STREQUAL got)
    message(FATAL_ERROR
            "--engine=heap differs in ${f} beyond the engine echo")
  endif()
  if(f MATCHES "\\.series\\.csv$")
    math(EXPR series_count "${series_count} + 1")
  elseif(f MATCHES "\\.trace\\.jsonl$")
    math(EXPR trace_count "${trace_count} + 1")
  endif()
endforeach()

# campaigns/churn.json has 12 cells; a telemetry wiring regression that
# silently stops writing the files must not pass as "nothing differed".
if(series_count LESS 12 OR trace_count LESS 12)
  message(FATAL_ERROR "expected >= 12 series + 12 trace files, found "
          "${series_count} series / ${trace_count} trace")
endif()

# Any other engine value is an error that names the key.
execute_process(
  COMMAND "${GCS_RUN}" --campaign "${CAMPAIGN}" --quiet --engine=foo
          --horizon=2 --out "${OUT_DIR}/engine-foo"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr)
if(rc EQUAL 0 OR NOT "${stdout}${stderr}" MATCHES "unknown engine 'foo'")
  message(FATAL_ERROR "--engine=foo: want a failure naming the engine key, "
          "got exit ${rc}\n${stdout}\n${stderr}")
endif()

# gcs_report is a pure function of the tree: two runs, identical bytes.
foreach(pass a b)
  execute_process(
    COMMAND "${GCS_REPORT}" "${TREE_A}" -o "${OUT_DIR}/report_${pass}.txt"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "gcs_report exited ${rc}\n${stdout}\n${stderr}")
  endif()
endforeach()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          "${OUT_DIR}/report_a.txt" "${OUT_DIR}/report_b.txt"
  RESULT_VARIABLE cmp)
if(NOT cmp EQUAL 0)
  message(FATAL_ERROR "gcs_report produced different bytes on the same tree")
endif()

message(STATUS "telemetry determinism: ${series_count} series + ${trace_count} "
        "trace files byte-identical across --jobs; engine=calendar|heap "
        "trees identical modulo the echo, engine=foo rejected; "
        "gcs_report stable")
