# End-to-end CTest for the envelope byte-stability contract (the PR-10
# tentpole acceptance): campaigns/ablation_frontier.json run through the
# real gcs_run binary over {--jobs 1,2} x {shards 0,4}
# must produce ONE envelope-fit artifact -- the fitter's group key folds
# every execution-layout axis, so `gcs_report --envelope-json` output is
# byte-identical across the whole grid, with no normalization allowed.
# The rendered --envelope report section must agree byte-for-byte too
# (the surrounding report sections legitimately echo shards/tree-path
# differences, so only the envelope section is compared).
#
# The same artifact must then match the committed ENVELOPE_baseline.json
# under `gcs_diff --strict` (the CI gate, exercised here through the
# same file-mode), and a doctored copy must trip the gate naming the
# perturbed field.
#
# Invoked in script mode by CTest with:
#   -DGCS_RUN=<gcs_run> -DGCS_REPORT=<gcs_report> -DGCS_DIFF=<gcs_diff>
#   -DCAMPAIGN=<campaigns/ablation_frontier.json>
#   -DBASELINE=<ENVELOPE_baseline.json>
#   -DOUT_DIR=<scratch directory>

foreach(var GCS_RUN GCS_REPORT GCS_DIFF CAMPAIGN BASELINE OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_envelope_stability.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${OUT_DIR}")

# Returns the report text from "empirical skew envelope" onward.
function(envelope_section path out_var)
  file(READ "${path}" text)
  string(FIND "${text}" "empirical skew envelope" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "no envelope section in ${path}")
  endif()
  string(SUBSTRING "${text}" ${pos} -1 section)
  set(${out_var} "${section}" PARENT_SCOPE)
endfunction()

# {jobs 1,2} x {shards 0,4}; "ref" is jobs=1 unsharded.  (Each tuple is
# quoted so the embedded ';' survives as a sub-list -- do not collect
# these into one set() variable.)
foreach(cfg "ref;1;0" "j2;2;0" "s4;1;4" "s4j;2;4")
  list(GET cfg 0 tree)
  list(GET cfg 1 jobs)
  list(GET cfg 2 shards)
  execute_process(
    COMMAND "${GCS_RUN}" --campaign "${CAMPAIGN}" --check --quiet
            --jobs ${jobs} --shards=${shards}
            --out "${OUT_DIR}/${tree}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "gcs_run (${tree}) exited ${rc}\n${stdout}\n${stderr}")
  endif()
  execute_process(
    COMMAND "${GCS_REPORT}" "${OUT_DIR}/${tree}" --envelope
            --envelope-json "${OUT_DIR}/${tree}.envelope.json"
            -o "${OUT_DIR}/${tree}.report.txt"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "gcs_report (${tree}) exited ${rc}\n${stdout}\n${stderr}")
  endif()
endforeach()

envelope_section("${OUT_DIR}/ref.report.txt" want_section)
foreach(tree j2 s4 s4j)
  # The artifact: exact bytes, nothing normalized.
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${OUT_DIR}/ref.envelope.json" "${OUT_DIR}/${tree}.envelope.json"
    RESULT_VARIABLE cmp)
  if(NOT cmp EQUAL 0)
    message(FATAL_ERROR "${tree} produced different envelope-json bytes")
  endif()
  envelope_section("${OUT_DIR}/${tree}.report.txt" got_section)
  if(NOT want_section STREQUAL got_section)
    message(FATAL_ERROR "${tree} rendered a different --envelope section")
  endif()
endforeach()

# The CI gate, through the same code path: the committed baseline must
# match a regenerated artifact under gcs_diff's file mode.
execute_process(
  COMMAND "${GCS_DIFF}" "${BASELINE}" "${OUT_DIR}/ref.envelope.json" --strict
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gcs_diff --strict vs committed baseline exited ${rc} "
          "(regenerate with scripts/regen_envelope.sh if the physics "
          "changed on purpose)\n${stdout}\n${stderr}")
endif()

# ...and a doctored ratio must trip it, with the field named.
file(READ "${OUT_DIR}/ref.envelope.json" doctored)
string(REGEX REPLACE "\"envelope_ratio\": [^,\n]+" "\"envelope_ratio\": 0.123"
       doctored "${doctored}")
file(WRITE "${OUT_DIR}/doctored.envelope.json" "${doctored}")
execute_process(
  COMMAND "${GCS_DIFF}" "${BASELINE}" "${OUT_DIR}/doctored.envelope.json"
          --strict
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE stdout)
if(rc EQUAL 0)
  message(FATAL_ERROR "gcs_diff --strict passed a doctored envelope\n${stdout}")
endif()
if(NOT stdout MATCHES "envelope_ratio")
  message(FATAL_ERROR "gcs_diff did not name the doctored field:\n${stdout}")
endif()

# Mixing the file mode with a tree is a usage error, not a quiet pass.
execute_process(
  COMMAND "${GCS_DIFF}" "${BASELINE}" "${OUT_DIR}/ref" --strict
  RESULT_VARIABLE rc
  ERROR_VARIABLE stderr)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "file-vs-tree gcs_diff exited ${rc}, wanted 2")
endif()
if(NOT stderr MATCHES "cannot compare a file with a tree")
  message(FATAL_ERROR "file-vs-tree error not reported:\n${stderr}")
endif()

message(STATUS "envelope stability: 4 {jobs} x {shards} layouts "
        "produced identical envelope artifacts; committed baseline gate "
        "holds and flags perturbations")
