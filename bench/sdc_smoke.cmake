# sdc_smoke: end-to-end check of silent-data-corruption resilience.
#   1. bfs_tool runs with an at-rest memory flip injected mid-traversal
#      (1D parents, 2D-hybrid levels); the audit must detect it, the
#      rollback must repair it from a verified checkpoint, and every BFS
#      tree must still validate. Under the sanitize preset this whole
#      path — flip, audit, checkpoint verification, rollback, replay —
#      runs under ASan/UBSan. A 1024-core 2D run adds a sieve flip
#      outside the victim rank's window and a checkpoint flip under a
#      later snapshot, both of which must be detected.
#   2. With auditing off and no fault plan, the report JSON must carry no
#      "sdc" block and must be byte-identical across two invocations —
#      the SDC machinery is provably inert on clean runs (the committed
#      BENCH_*.json baselines diffed by bench_smoke pin the same property
#      against the pre-PR records).
# Invoked by ctest as
#   cmake -DBFS_TOOL=<exe> -DOUT_DIR=<scratch> -P sdc_smoke.cmake
cmake_policy(SET CMP0007 NEW)  # keep the triple's empty middle element
foreach(var BFS_TOOL OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "sdc_smoke: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

# --- 1. injected flips must be detected, rolled back, and repaired -----
foreach(triple "1d;;parents" "2d;--direction=hybrid;levels")
  list(GET triple 0 algo)
  list(GET triple 1 extra)
  list(GET triple 2 target)
  set(extra_args)
  if(extra MATCHES "--direction=(.*)")
    set(extra_args --direction ${CMAKE_MATCH_1})
  endif()
  execute_process(
    COMMAND "${BFS_TOOL}" --gen rmat --scale 11 --cores 16 --algo ${algo}
            ${extra_args} --sources 2
            --fault-plan flip:1@level2:${target}
            --audit-every 1 --checkpoint-every 1
    WORKING_DIRECTORY "${OUT_DIR}"
    RESULT_VARIABLE run_rc
    OUTPUT_VARIABLE run_out
    ERROR_VARIABLE run_err)
  if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR "sdc_smoke: bfs_tool --algo ${algo} with a "
                        "${target} flip failed (rc=${run_rc})\n"
                        "stdout:\n${run_out}\nstderr:\n${run_err}")
  endif()
  if(NOT run_out MATCHES "validated 2/2 BFS trees")
    message(FATAL_ERROR "sdc_smoke: --algo ${algo} ran but did not "
                        "validate both trees after the ${target} flip\n"
                        "stdout:\n${run_out}")
  endif()
  if(NOT run_out MATCHES "[1-9][0-9]* flip\\(s\\) injected")
    message(FATAL_ERROR "sdc_smoke: --algo ${algo} validated but the "
                        "${target} flip never fired\nstdout:\n${run_out}")
  endif()
  if(NOT run_out MATCHES "[1-9][0-9]* rollback\\(s\\) repairing")
    message(FATAL_ERROR "sdc_smoke: --algo ${algo} took the ${target} flip "
                        "but never rolled back — was the corruption "
                        "detected?\nstdout:\n${run_out}")
  endif()
endforeach()

# --- 1b. windowed sieve + delta-log checkpoints on a 32x32 grid --------
# Rank 700 is (21, 28); its sieve window is the row block R_21, and the
# flip's victim (vertex 886 of this graph) lies outside it, so the flip
# lands in the stray list. The checkpoint flip corrupts the level-0
# snapshot just before the level-1 snapshot is taken on top of it, so
# the scrub must reject a delta that a later snapshot uses as its base.
execute_process(
  COMMAND "${BFS_TOOL}" --gen rmat --scale 11 --cores 1024 --algo 2d
          --wire-format auto --sources 2
          --fault-plan flip:700@level2:visited,5@level1:checkpoint
          --audit-every 2 --checkpoint-every 1
  WORKING_DIRECTORY "${OUT_DIR}"
  RESULT_VARIABLE grid_rc
  OUTPUT_VARIABLE grid_out
  ERROR_VARIABLE grid_err)
if(NOT grid_rc EQUAL 0)
  message(FATAL_ERROR "sdc_smoke: 1024-core 2D run with a visited and a "
                      "checkpoint flip failed (rc=${grid_rc})\n"
                      "stdout:\n${grid_out}\nstderr:\n${grid_err}")
endif()
if(NOT grid_out MATCHES "validated 2/2 BFS trees")
  message(FATAL_ERROR "sdc_smoke: 1024-core 2D run did not validate both "
                      "trees\nstdout:\n${grid_out}")
endif()
string(CONCAT both_detected "2 flip\\(s\\) injected, [1-9][0-9]* "
       "rollback\\(s\\) repairing [0-9]+ level\\(s\\), [1-9][0-9]* "
       "checkpoint\\(s\\) rejected")
if(NOT grid_out MATCHES "${both_detected}")
  message(FATAL_ERROR "sdc_smoke: 1024-core 2D run did not detect both "
                      "flips (the visited flip needs a rollback, the "
                      "checkpoint flip a rejected snapshot)\n"
                      "stdout:\n${grid_out}")
endif()

# --- 2. the machinery must be inert on clean runs ----------------------
foreach(side a b)
  execute_process(
    COMMAND "${BFS_TOOL}" --gen rmat --scale 11 --cores 16 --algo 2d
            --sources 1 --json
    WORKING_DIRECTORY "${OUT_DIR}"
    RESULT_VARIABLE clean_rc
    OUTPUT_VARIABLE clean_${side}
    ERROR_VARIABLE clean_err)
  if(NOT clean_rc EQUAL 0)
    message(FATAL_ERROR "sdc_smoke: clean bfs_tool run ${side} failed "
                        "(rc=${clean_rc})\nstderr:\n${clean_err}")
  endif()
endforeach()
if(NOT clean_a STREQUAL clean_b)
  message(FATAL_ERROR "sdc_smoke: two identical clean runs differ — the "
                      "SDC machinery is perturbing fault-free output")
endif()
if(clean_a MATCHES "\"sdc\"")
  message(FATAL_ERROR "sdc_smoke: clean run's report JSON carries an "
                      "\"sdc\" block — it must appear only when auditing "
                      "or a flip plan is active\n${clean_a}")
endif()

message(STATUS "sdc_smoke passed: flips detected and repaired with "
               "validated trees (1d/parents, 2d-hybrid/levels, 1024-core "
               "2d visited+checkpoint); clean report JSON stable and "
               "sdc-free")
