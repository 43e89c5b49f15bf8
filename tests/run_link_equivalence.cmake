# End-to-end CTest for the link-equivalence matrix (the traffic-pipeline
# tentpole acceptance), same shape as run_store_equivalence.cmake:
#
# 1. Ideal-link degeneration: traffic "off" (the legacy stochastic path)
#    and "idle" (the pipeline with infinite bandwidth) must produce
#    byte-identical result trees at EVERY point of
#    {shards 0, 1, 4} x {jobs 1, 2}, where
#    "identical" is exact except for the single declared echo: the
#    "traffic" value in the config echo and campaign.csv's traffic
#    column (gcs_diff strips config.traffic the same way, which the
#    --strict run proves).  Series and trace artifacts -- pure
#    trajectory bytes -- must be exactly identical with no
#    normalization.
#
# 2. Traffic-on determinism: a saturated cbr tree must be byte-identical
#    across {jobs 1, 2} x {shards 1, 4} (modulo the shards echo, exactly
#    like run_shards_determinism.cmake) and across jobs for the classic
#    shards=0 universe --
#    queueing, drops, and ECN marks are deterministic physics, not
#    execution noise.
#
# 3. gcs_diff --strict passes between an off and an idle tree, and then
#    flags a perturbed traffic counter by name.
#
# Sharded runs need a delay floor, so every run pins a uniform delay
# with lo=0.25 (randomness keeps the off/idle identity non-trivial).
#
# Invoked in script mode by CTest with:
#   -DGCS_RUN=<path to gcs_run>  -DGCS_DIFF=<path to gcs_diff>
#   -DOUT_DIR=<scratch directory>

foreach(var GCS_RUN GCS_DIFF OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_link_equivalence.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${OUT_DIR}")

# rate 12 x 1000-byte packets on an 8000 B/s link is a 1.5x overload:
# the backlog climbs ~333 B/s, hits the 4000-byte queue cap well inside
# the 30 s horizon, and drops cbr packets (the saturation check below
# depends on this -- a sub-saturating rate would leave traffic_dropped
# at 0 and prove much less).
set(CBR "cbr:bw=8000:rate=12:pkt=1000:queue=4000:mark=1000")

# Runs one ad-hoc churn sweep (2 cells) into ${OUT_DIR}/${tree}.
function(run_tree tree traffic shards jobs)
  execute_process(
    COMMAND "${GCS_RUN}" --n=12 --scenario=churn:volatile_edges=6:lifetime=5
            --drift=walk --delay=uniform:0.25:1 --horizon=30 --sample_dt=1
            --seeds=1..2 "--traffic=${traffic}"
            "--shards=${shards}" --jobs ${jobs}
            --name=linkeq --check --quiet --fixed-timing
            --series --trace=256 --out "${OUT_DIR}/${tree}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "gcs_run (${tree}) exited ${rc}\n${stdout}\n${stderr}")
  endif()
endfunction()

# Reads a tree file with the declared echoes normalized away.
function(read_normalized path strip_traffic strip_shards out_var)
  file(READ "${path}" text)
  if(strip_traffic)
    string(REGEX REPLACE "\"traffic\": *\"[^\"]*\"" "\"traffic\": X"
           text "${text}")
    string(REGEX REPLACE ",(off|idle)," ",X," text "${text}")
  endif()
  if(strip_shards)
    string(REGEX REPLACE "\"shards\": *[0-9]+" "\"shards\": X" text "${text}")
  endif()
  set(${out_var} "${text}" PARENT_SCOPE)
endfunction()

# Compares two trees file by file: pure-trajectory artifacts byte-exact,
# everything else exact modulo the requested echo normalizations.
function(compare_trees a b strip_traffic strip_shards what)
  file(GLOB_RECURSE tree_files RELATIVE "${OUT_DIR}/${a}" "${OUT_DIR}/${a}/*")
  list(SORT tree_files)
  list(LENGTH tree_files file_count)
  if(file_count LESS 9)  # 2 cells x (json + series + trace) + csv + jsonl + summary
    message(FATAL_ERROR
            "suspiciously small tree ${a} (${file_count} files): ${tree_files}")
  endif()
  foreach(f ${tree_files})
    if(NOT EXISTS "${OUT_DIR}/${b}/${f}")
      message(FATAL_ERROR "${what}: ${b} is missing ${f}")
    endif()
    if(f MATCHES "\\.series\\.csv$" OR f MATCHES "\\.trace\\.jsonl$")
      execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
                "${OUT_DIR}/${a}/${f}" "${OUT_DIR}/${b}/${f}"
        RESULT_VARIABLE cmp)
      if(NOT cmp EQUAL 0)
        message(FATAL_ERROR
                "${what}: different trajectory bytes for ${f}")
      endif()
    else()
      read_normalized("${OUT_DIR}/${a}/${f}" ${strip_traffic} ${strip_shards}
                      want)
      read_normalized("${OUT_DIR}/${b}/${f}" ${strip_traffic} ${strip_shards}
                      got)
      if(NOT want STREQUAL got)
        message(FATAL_ERROR
                "${what}: trees differ in ${f} beyond the declared echoes")
      endif()
    endif()
  endforeach()
endfunction()

# --- 1. off == idle at every execution-layout point ------------------------
set(points_checked 0)
foreach(shards 0 1 4)
  foreach(jobs 1 2)
    set(tag "s${shards}-j${jobs}")
    run_tree("${tag}-off" off ${shards} ${jobs})
    run_tree("${tag}-idle" idle ${shards} ${jobs})
    compare_trees("${tag}-off" "${tag}-idle" TRUE FALSE
                  "off vs idle at ${tag}")
    math(EXPR points_checked "${points_checked} + 1")
  endforeach()
endforeach()
if(NOT points_checked EQUAL 6)
  message(FATAL_ERROR "expected 6 matrix points, checked ${points_checked}")
endif()

# --- 2. traffic-on trees are deterministic ---------------------------------
# Sharded universe: shards=1 --jobs 1 is the reference.
run_tree(cbr-ref "${CBR}" 1 1)
run_tree(cbr-j2 "${CBR}" 1 2)
run_tree(cbr-s4 "${CBR}" 4 2)
run_tree(cbr-s4j1 "${CBR}" 4 1)
compare_trees(cbr-ref cbr-j2 FALSE FALSE "cbr jobs 1 vs 2")
compare_trees(cbr-ref cbr-s4 FALSE TRUE "cbr shards 1 vs 4")
compare_trees(cbr-ref cbr-s4j1 FALSE TRUE "cbr shards 4 jobs 1")
# Classic universe: shards=0 across jobs.
run_tree(cbr-c-ref "${CBR}" 0 1)
run_tree(cbr-c-j2 "${CBR}" 0 2)
compare_trees(cbr-c-ref cbr-c-j2 FALSE FALSE "classic cbr determinism")

# The load must actually be visible, or the whole matrix proves nothing:
# the reference cbr tree carries nonzero drops somewhere.
file(READ "${OUT_DIR}/cbr-ref/campaign.csv" cbr_csv)
if(NOT cbr_csv MATCHES "\"${CBR}\"" AND NOT cbr_csv MATCHES "${CBR}")
  message(FATAL_ERROR "cbr campaign.csv does not echo the traffic spec:\n${cbr_csv}")
endif()
file(GLOB cbr_cells "${OUT_DIR}/cbr-ref/cells/*.json")
list(GET cbr_cells 0 cbr_cell)
file(READ "${cbr_cell}" cbr_text)
if(cbr_text MATCHES "\"traffic_packets\": 0[,\n]")
  message(FATAL_ERROR "cbr cell offered no background packets:\n${cbr_text}")
endif()
if(cbr_text MATCHES "\"traffic_dropped\": 0[,\n]")
  message(FATAL_ERROR "saturated cbr cell dropped nothing:\n${cbr_text}")
endif()

# --- 3. the gcs_diff gate agrees -------------------------------------------
execute_process(
  COMMAND "${GCS_DIFF}" "${OUT_DIR}/s0-j1-off"
          "${OUT_DIR}/s0-j1-idle" --strict
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "gcs_diff --strict off vs idle exited ${rc}\n${stdout}\n${stderr}")
endif()

# ...and still flags a perturbed traffic counter by name.
file(GLOB cell_files "${OUT_DIR}/s0-j1-idle/cells/*.json")
list(SORT cell_files)
list(GET cell_files 0 victim)
file(READ "${victim}" cell_text)
string(REGEX REPLACE "\"traffic_packets\": [0-9]+"
       "\"traffic_packets\": 777" cell_text "${cell_text}")
file(WRITE "${victim}" "${cell_text}")
execute_process(
  COMMAND "${GCS_DIFF}" "${OUT_DIR}/s0-j1-off"
          "${OUT_DIR}/s0-j1-idle" --strict
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE stdout)
if(rc EQUAL 0)
  message(FATAL_ERROR
          "gcs_diff --strict failed to flag a perturbed traffic counter\n${stdout}")
endif()
if(NOT stdout MATCHES "traffic_packets")
  message(FATAL_ERROR "gcs_diff did not name the perturbed field:\n${stdout}")
endif()

message(STATUS "link equivalence: off == idle at {shards 0,1,4} x "
        "{jobs 1,2} (6 points); saturated cbr trees byte-deterministic "
        "across jobs/shards; gcs_diff gate works")
