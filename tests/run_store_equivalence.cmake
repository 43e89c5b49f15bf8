# End-to-end CTest for the store-equivalence matrix (the PR-8 tentpole
# acceptance): the struct-of-arrays columns store and the per-node
# adapter store must produce byte-identical result trees across
# {churn, switching-star, gauss-markov} x {shards 0, 1, 4}, plus the variant axis {weighted:0.5, noblock,
# nojump} x {shards 0, 4} on churn, where "identical" is exact except
# for the two declared store echoes:
#
#   * the "store" value in the config echo ("columns" vs "adapter";
#     gcs_diff strips it the same way, which the --strict run proves);
#   * run_stats.arena_bytes (the columns store reports its flat-arena
#     footprint, the adapter reports 0; gcs_diff skips it with the
#     timing fields).
#
# Series and trace artifacts -- pure trajectory bytes -- must be exactly
# identical with no normalization, and campaign.csv carries neither echo
# so it must be exact too.
#
# Sharded runs need a delay floor, so every run pins --delay=constant:0.5.
#
# Invoked in script mode by CTest with:
#   -DGCS_RUN=<path to gcs_run>  -DGCS_DIFF=<path to gcs_diff>
#   -DOUT_DIR=<scratch directory>

foreach(var GCS_RUN GCS_DIFF OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_store_equivalence.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${OUT_DIR}")

set(scenarios
    "churn|churn:volatile_edges=6:lifetime=5"
    "star|switching-star:period=10:overlap=2"
    "gm|gauss-markov:alpha=0.85")

# Reads a tree file with the two store echoes normalized away.
function(read_normalized path out_var)
  file(READ "${path}" text)
  string(REGEX REPLACE "\"store\": *\"[a-z]+\"" "\"store\": X" text "${text}")
  string(REGEX REPLACE "\"arena_bytes\": *[0-9]+" "\"arena_bytes\": X"
         text "${text}")
  set(${out_var} "${text}" PARENT_SCOPE)
endfunction()

# Runs one matrix point on both stores (extra gcs_run flags in ARGN) and
# compares the two trees.
function(check_pair tag)
  foreach(store columns adapter)
    execute_process(
      COMMAND "${GCS_RUN}" --n=12 --drift=walk
              --delay=constant:0.5 --horizon=30 --sample_dt=1 --seeds=1..2
              ${ARGN} "--store=${store}"
              --name=storeeq --check --quiet --fixed-timing
              --series --trace=256 --out "${OUT_DIR}/${tag}-${store}"
      RESULT_VARIABLE rc
      OUTPUT_VARIABLE stdout
      ERROR_VARIABLE stderr)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR
              "gcs_run (${tag}-${store}) exited ${rc}\n${stdout}\n${stderr}")
    endif()
  endforeach()

  set(COLS "${OUT_DIR}/${tag}-columns")
  set(ADPT "${OUT_DIR}/${tag}-adapter")
  file(GLOB_RECURSE tree_files RELATIVE "${COLS}" "${COLS}/*")
  list(SORT tree_files)
  list(LENGTH tree_files file_count)
  if(file_count LESS 9)  # 2 cells x (json + series + trace) + csv + jsonl + summary
    message(FATAL_ERROR
            "suspiciously small tree ${tag} (${file_count} files): ${tree_files}")
  endif()
  foreach(f ${tree_files})
    if(NOT EXISTS "${ADPT}/${f}")
      message(FATAL_ERROR "${tag}: adapter tree is missing ${f}")
    endif()
    if(f MATCHES "\\.series\\.csv$" OR f MATCHES "\\.trace\\.jsonl$"
       OR f MATCHES "campaign\\.csv$")
      # Trajectory bytes: exact equality, no normalization allowed.
      execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
                "${COLS}/${f}" "${ADPT}/${f}"
        RESULT_VARIABLE cmp)
      if(NOT cmp EQUAL 0)
        message(FATAL_ERROR
                "${tag}: stores produced different bytes for ${f}")
      endif()
    else()
      read_normalized("${COLS}/${f}" want)
      read_normalized("${ADPT}/${f}" got)
      if(NOT want STREQUAL got)
        message(FATAL_ERROR "${tag}: stores differ in ${f} beyond the "
                "store/arena_bytes echoes")
      endif()
    endif()
  endforeach()
endfunction()

set(pairs_checked 0)
foreach(scenario_spec ${scenarios})
  string(REPLACE "|" ";" scenario_parts "${scenario_spec}")
  list(GET scenario_parts 0 sc_tag)
  list(GET scenario_parts 1 sc_flag)
  foreach(shards 0 1 4)
    check_pair("${sc_tag}-s${shards}" "--scenario=${sc_flag}"
               "--shards=${shards}")
    math(EXPR pairs_checked "${pairs_checked} + 1")
  endforeach()
endforeach()

# The variant axis: every ablation protocol runs on the columns store
# through the same kernel as the adapter's DcsaNode.
foreach(variant_spec "weighted|weighted:0.5" "noblock|noblock" "nojump|nojump")
  string(REPLACE "|" ";" variant_parts "${variant_spec}")
  list(GET variant_parts 0 v_tag)
  list(GET variant_parts 1 v_flag)
  foreach(shards 0 4)
    check_pair("churn-${v_tag}-s${shards}"
               "--scenario=churn:volatile_edges=6:lifetime=5"
               "--variant=${v_flag}" "--shards=${shards}")
    math(EXPR pairs_checked "${pairs_checked} + 1")
  endforeach()
endforeach()

if(NOT pairs_checked EQUAL 15)
  message(FATAL_ERROR "expected 15 matrix points, checked ${pairs_checked}")
endif()

# gcs_diff --strict agrees: it strips config.store and skips arena_bytes
# itself, so a columns tree must compare clean against an adapter tree.
execute_process(
  COMMAND "${GCS_DIFF}" "${OUT_DIR}/churn-s0-columns"
          "${OUT_DIR}/churn-s0-adapter" --strict
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "gcs_diff --strict columns vs adapter exited ${rc}\n${stdout}\n${stderr}")
endif()

# ...and still flags a real trajectory difference, naming the field.
file(GLOB cell_files "${OUT_DIR}/churn-s0-adapter/cells/*.json")
list(SORT cell_files)
list(GET cell_files 0 victim)
file(READ "${victim}" cell_text)
string(REGEX REPLACE "\"total_jump\": [0-9.e+-]+"
       "\"total_jump\": 123456789" cell_text "${cell_text}")
file(WRITE "${victim}" "${cell_text}")
execute_process(
  COMMAND "${GCS_DIFF}" "${OUT_DIR}/churn-s0-columns"
          "${OUT_DIR}/churn-s0-adapter" --strict
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE stdout)
if(rc EQUAL 0)
  message(FATAL_ERROR
          "gcs_diff --strict failed to flag a perturbed adapter tree\n${stdout}")
endif()
if(NOT stdout MATCHES "total_jump")
  message(FATAL_ERROR "gcs_diff did not name the perturbed field:\n${stdout}")
endif()

message(STATUS "store equivalence: {churn,switching-star,gauss-markov} x "
        "{shards 0,1,4} and {weighted,noblock,nojump} x "
        "{shards 0,4} columns/adapter trees identical "
        "modulo the declared store echoes (${pairs_checked} matrix points); "
        "gcs_diff gate works")
