# atlas_smoke: run bfs_tool with --atlas-out on the same tiny R-MAT
# instance in 1D and 2D, validate both communication-atlas dumps with the
# standalone trace_lint, and assert the paper's locality contrast: the 2D
# checkerboard confines a strictly larger share of its network bytes to
# row/column subcommunicators than 1D (whose 1xp grid confines exactly
# none). A third run puts the atlas at the scale it serves — 2D on 1024
# ranks with the hybrid direction, the auto wire format and a checkpoint
# every level — and lints that dump too. Invoked by ctest as
#   cmake -DBFS_TOOL=<exe> -DTRACE_LINT=<exe> -DOUT_DIR=<dir> -P atlas_smoke.cmake
foreach(var BFS_TOOL TRACE_LINT OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "atlas_smoke: -D${var}=... is required")
  endif()
endforeach()

file(MAKE_DIRECTORY "${OUT_DIR}")

# Run bfs_tool with --atlas-out plus the extra arguments, lint the dump,
# and leave the run's stdout in `run_out` and the lint verdict in
# `lint_out` (both set in the caller's scope).
function(run_and_lint label)
  set(atlas_file "${OUT_DIR}/atlas_smoke_${label}.json")
  file(REMOVE "${atlas_file}")
  execute_process(
    COMMAND "${BFS_TOOL}" --gen rmat --scale 10 --sources 1 ${ARGN}
            --atlas-out "${atlas_file}"
    RESULT_VARIABLE run_rc
    OUTPUT_VARIABLE run_out
    ERROR_VARIABLE run_err)
  if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR "atlas_smoke: bfs_tool (${label}) failed "
                        "(rc=${run_rc})\nstdout:\n${run_out}\n"
                        "stderr:\n${run_err}")
  endif()
  if(NOT EXISTS "${atlas_file}")
    message(FATAL_ERROR "atlas_smoke: bfs_tool (${label}) exited 0 but "
                        "wrote no atlas dump\nstdout:\n${run_out}")
  endif()

  execute_process(
    COMMAND "${TRACE_LINT}" "${atlas_file}"
    RESULT_VARIABLE lint_rc
    OUTPUT_VARIABLE lint_out
    ERROR_VARIABLE lint_err)
  if(NOT lint_rc EQUAL 0)
    message(FATAL_ERROR "atlas_smoke: trace_lint rejected ${atlas_file} "
                        "(rc=${lint_rc})\nstdout:\n${lint_out}\n"
                        "stderr:\n${lint_err}")
  endif()
  if(NOT lint_out MATCHES "atlas OK")
    message(FATAL_ERROR "atlas_smoke: dump was not linted as an atlas "
                        "dump\n${lint_out}")
  endif()
  set(run_out "${run_out}" PARENT_SCOPE)
  set(lint_out "${lint_out}" PARENT_SCOPE)
endfunction()

# One run per algorithm; capture the "atlas (first run): ... locality
# share X.XXXX ..." stdout line for the contrast assertion.
foreach(algo 1d 2d)
  run_and_lint(${algo} --cores 16 --algo ${algo})
  if(NOT run_out MATCHES "locality share ([0-9]+\\.[0-9]+)")
    message(FATAL_ERROR "atlas_smoke: --algo ${algo} printed no locality "
                        "share\nstdout:\n${run_out}")
  endif()
  set(locality_${algo} "${CMAKE_MATCH_1}")
  message(STATUS "atlas_smoke: ${algo} locality share ${CMAKE_MATCH_1}; "
                 "${lint_out}")
endforeach()

run_and_lint(2d_1024 --cores 1024 --algo 2d --direction hybrid
             --wire-format auto --checkpoint-every 1)
message(STATUS "atlas_smoke: 2d on 1024 ranks; ${lint_out}")

if(NOT locality_2d GREATER locality_1d)
  message(FATAL_ERROR "atlas_smoke: expected the 2D decomposition to "
                      "confine more traffic to subcommunicators than 1D, "
                      "got 2d=${locality_2d} vs 1d=${locality_1d}")
endif()
message(STATUS "atlas_smoke passed: 2d locality ${locality_2d} > "
               "1d locality ${locality_1d}")
